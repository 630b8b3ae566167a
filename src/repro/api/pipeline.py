"""The paper's algorithm as one fixed run: Formulate -> Solve -> Round -> Repair -> Audit.

:class:`DesignPipeline` formulates the Section-2 LP, solves it, rounds the
fractional solution (Sections 3 + 5), repairs shortfalls (Section 7) and
audits the result, in that order, over one :class:`PipelineContext`.  The
context is the run's one record: every intermediate artifact (formulation,
LP solution, fractional support, rounding draw, GAP result, final solution,
audit) lives on it, and per-step wall-clock times accumulate in
``context.stage_seconds``.  The ``"spaa03"`` and ``"spaa03-extended"``
designers return it as ``DesignResult.report``.

``DesignPipeline.standard(hooks=[hook])`` calls ``hook(step_name, context)``
after every step (``formulate``, ``solve``, ``round``, ``repair``,
``audit``), so e.g. the fractional LP solution is observable right after the
``"solve"`` step.  :meth:`DesignPipeline.extended` is the Section-6 variant:
its round step uses path rounding when colour constraints or arc capacities
are on.

The registered designers of :mod:`repro.api.designers` run these two
pipelines, so a pipeline run and a registry run produce bit-identical
solutions for a fixed seed.  Use the registry (``repro.api.run_request``) to
run a design, and a pipeline when its hooks are what you need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.audit import SolutionAudit, audit_solution
from repro.core.algorithm import DesignParameters, repair_weight_shortfalls
from repro.core.formulation import SparseOverlayFormulation, build_sparse_formulation
from repro.core.gap import GapResult, gap_round
from repro.core.lp_solution import FractionalSolution, RoundedSolution
from repro.core.path_rounding import (
    EntangledSet,
    PathRoundingResult,
    arc_capacity_entangled_sets,
    color_entangled_sets,
    path_round,
)
from repro.core.problem import OverlayDesignProblem
from repro.core.rounding import (
    RoundingAudit,
    audit_rounding,
    round_solution,
    round_solution_with_retries,
)
from repro.core.solution import OverlaySolution


@dataclass
class PipelineContext:
    """Everything a pipeline run produces: the one record of a design run.

    Each step reads its inputs from and writes its outputs to this object.
    ``stage_seconds`` has the keys ``formulate``, ``solve_lp``, ``rounding``,
    ``gap``, ``repair`` and ``audit``.  ``metadata`` is free-form scratch
    space for hooks; the designers copy it into their result's metadata.
    """

    problem: OverlayDesignProblem
    parameters: DesignParameters
    rng: np.random.Generator
    formulation: SparseOverlayFormulation | None = None
    lp_solution: object | None = None
    fractional: FractionalSolution | None = None
    rounded: RoundedSolution | None = None
    rounding_audit: RoundingAudit | None = None
    rounding_attempts: int = 0
    gap: GapResult | None = None
    path_rounding: PathRoundingResult | None = None
    entangled_sets: list[EntangledSet] = field(default_factory=list)
    solution: OverlaySolution | None = None
    solution_audit: SolutionAudit | None = None
    stage_seconds: dict[str, float] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @property
    def lp_lower_bound(self) -> float | None:
        return self.fractional.objective if self.fractional is not None else None


def _formulate(context: PipelineContext) -> None:
    """Build the Section-2 LP relaxation."""
    start = time.perf_counter()
    context.formulation = build_sparse_formulation(context.problem, context.parameters.extensions)
    context.stage_seconds["formulate"] = time.perf_counter() - start


def _solve(context: PipelineContext) -> None:
    """Solve the LP and extract the fractional support."""
    start = time.perf_counter()
    context.lp_solution = context.formulation.solve()
    context.stage_seconds["solve_lp"] = time.perf_counter() - start
    context.fractional = context.formulation.fractional_solution(context.lp_solution).support()


def _draw(context: PipelineContext) -> None:
    """The Section-3 randomized rounding, redrawn until accepted when asked."""
    parameters = context.parameters
    start = time.perf_counter()
    if parameters.retry_rounding:
        rounded, audit, attempts = round_solution_with_retries(
            context.problem,
            context.fractional,
            parameters.rounding,
            context.rng,
            max_attempts=parameters.max_rounding_attempts,
        )
    else:
        rounded = round_solution(
            context.problem, context.fractional, parameters.rounding, context.rng
        )
        audit = audit_rounding(context.problem, rounded)
        attempts = 1
    context.rounded = rounded
    context.rounding_audit = audit
    context.rounding_attempts = attempts
    context.stage_seconds["rounding"] = time.perf_counter() - start


def _path_round(context: PipelineContext) -> GapResult:
    """The Section-6.5 path rounding over the draw's entangled sets.

    Arc capacities and colour constraints entangle the remaining fractional
    assignments across demands, which the plain GAP rounding cannot honour.
    """
    options = context.parameters.extensions
    support = list(context.rounded.x.keys())
    if options.use_color_constraints:
        context.entangled_sets.extend(color_entangled_sets(context.problem, support))
    if options.use_arc_capacities:
        context.entangled_sets.extend(arc_capacity_entangled_sets(context.problem, support))
    result = context.path_rounding = path_round(
        context.problem,
        context.rounded,
        entangled_sets=context.entangled_sets,
        rng=context.rng,
        keep_degenerate_box=context.parameters.keep_degenerate_box,
    )
    return GapResult(
        assignments=result.assignments,
        flow_value=float(result.boxes_served),
        boxes_total=result.boxes_total,
        boxes_served=result.boxes_served,
        cost=result.cost,
    )


def _repair(context: PipelineContext) -> None:
    """Optional Section-7-style greedy repair of weight shortfalls."""
    start = time.perf_counter()
    if context.parameters.repair_shortfall:
        context.solution = repair_weight_shortfalls(
            context.problem,
            context.solution,
            fanout_slack=context.parameters.repair_fanout_slack,
        )
    context.stage_seconds["repair"] = time.perf_counter() - start


def _audit(context: PipelineContext) -> None:
    """Constraint-violation audit of the final solution."""
    start = time.perf_counter()
    context.solution_audit = audit_solution(context.problem, context.solution)
    context.stage_seconds["audit"] = time.perf_counter() - start


class DesignPipeline:
    """The five steps of the paper's algorithm plus per-step observation hooks.

    ``hooks`` are callables ``(step_name, context) -> None`` invoked after
    each step completes; they observe (and may annotate
    ``context.metadata``) but should not replace pipeline state.
    ``path_rounding`` selects the Section-6 round step of :meth:`extended`.
    """

    def __init__(self, hooks: list | None = None, path_rounding: bool = False) -> None:
        self.hooks = list(hooks or [])
        self.path_rounding = path_rounding

    @classmethod
    def standard(cls, hooks: list | None = None) -> "DesignPipeline":
        """The paper's algorithm: the pipeline behind the ``"spaa03"`` designer."""
        return cls(hooks)

    @classmethod
    def extended(cls, hooks: list | None = None) -> "DesignPipeline":
        """The Section-6 variant: the pipeline behind ``"spaa03-extended"``."""
        return cls(hooks, path_rounding=True)

    def _round(self, context: PipelineContext) -> None:
        """Section-3 rounding, then the Section-5 GAP (or Section-6.5 path) rounding."""
        _draw(context)
        options = context.parameters.extensions
        start = time.perf_counter()
        if self.path_rounding and (options.use_color_constraints or options.use_arc_capacities):
            context.gap = _path_round(context)
        else:
            context.gap = gap_round(
                context.problem, context.rounded, context.parameters.keep_degenerate_box
            )
        context.stage_seconds["gap"] = time.perf_counter() - start
        label = "spaa03-lp-rounding-extended" if self.path_rounding else "spaa03-lp-rounding"
        metadata = {
            "algorithm": label,
            "multiplier": context.rounded.multiplier,
            "rounding_attempts": context.rounding_attempts,
        }
        if self.path_rounding:
            metadata["path_rounding"] = context.path_rounding is not None
        context.solution = OverlaySolution.from_assignments(
            context.problem, context.gap.assignments, metadata=metadata
        )

    def run(
        self,
        problem: OverlayDesignProblem,
        parameters: DesignParameters | None = None,
        rng: np.random.Generator | None = None,
    ) -> PipelineContext:
        """Run every step over ``problem`` and return the filled context.

        The RNG defaults to ``np.random.default_rng(parameters.rounding.seed)``
        and the steps consume it in a fixed order, so solutions are
        bit-identical for a fixed seed.
        """
        parameters = parameters or DesignParameters()
        if rng is None:
            rng = np.random.default_rng(parameters.rounding.seed)
        context = PipelineContext(problem=problem, parameters=parameters, rng=rng)
        steps = (
            ("formulate", _formulate),
            ("solve", _solve),
            ("round", self._round),
            ("repair", _repair),
            ("audit", _audit),
        )
        for name, step in steps:
            step(context)
            for hook in self.hooks:
                hook(name, context)
        return context


__all__ = ["DesignPipeline", "PipelineContext"]
