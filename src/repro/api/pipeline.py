"""The staged design pipeline: Formulate -> Solve -> Round -> Repair -> Audit.

The paper's algorithm is inherently a staged pipeline -- formulate the
Section-2 LP, solve it, round the fractional solution (Sections 3 + 5), repair
shortfalls (Section 7) and audit the result -- and this module makes those
stages first-class objects.  :class:`DesignPipeline` runs an ordered list of
:class:`PipelineStage` instances over a shared :class:`PipelineContext`;
every intermediate artifact (formulation, LP solution, fractional support,
rounding draw, GAP result, final solution, audit) lives on the context, and
per-stage wall-clock times accumulate in ``context.stage_seconds``.

Experiments can customize the pipeline without forking the driver:

* **swap a stage** -- ``DesignPipeline.standard().with_stage("round",
  MyRoundStage())`` replaces the Section-3/5 rounding with any object
  implementing :class:`PipelineStage`;
* **intercept an intermediate result** -- ``DesignPipeline.standard(hooks=
  [hook])`` calls ``hook(stage_name, context)`` after every stage, so e.g. the
  fractional LP solution is observable right after the ``"solve"`` stage.

The registered ``"spaa03"`` and ``"spaa03-extended"`` designers of
:mod:`repro.api.designers` run :meth:`DesignPipeline.standard` and
:meth:`DesignPipeline.extended`, so a pipeline run and a registry run produce
bit-identical solutions for a fixed seed.  Use the registry
(``repro.api.run_request``) to run a design, and a pipeline when a stage or
its intermediate results are what you need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.audit import SolutionAudit, audit_solution
from repro.core.algorithm import (
    DesignParameters,
    DesignReport,
    repair_weight_shortfalls,
)
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
    """Everything a pipeline run produces, shared mutable state between stages.

    Stages read their inputs from and write their outputs to this object, so a
    custom stage can consume anything its predecessors produced.  ``metadata``
    is free-form scratch space for experiment hooks and custom stages.
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

    def report(self) -> DesignReport:
        """Assemble the :class:`~repro.core.algorithm.DesignReport` of this run."""
        return DesignReport(
            solution=self.solution,
            fractional=self.fractional,
            rounded=self.rounded,
            rounding_audit=self.rounding_audit,
            gap=self.gap,
            formulation_size=(
                self.formulation.num_variables,
                self.formulation.num_constraints,
            ),
            stage_seconds=dict(self.stage_seconds),
            rounding_attempts=self.rounding_attempts,
            lp_build_stats=self.formulation.stats,
            solution_audit=self.solution_audit,
        )


class PipelineStage:
    """One stage of the design pipeline.

    Subclasses set ``name`` (the key used by :meth:`DesignPipeline.with_stage`
    and reported to hooks) and implement :meth:`run`, reading/writing the
    shared :class:`PipelineContext`.  Stages record their own wall-clock times
    into ``context.stage_seconds`` -- the standard stages use the keys
    ``formulate``, ``solve_lp``, ``rounding``, ``gap``, ``repair`` and
    ``audit``, which report consumers read.
    """

    name: str = "stage"

    def run(self, context: PipelineContext) -> None:
        raise NotImplementedError


class FormulateStage(PipelineStage):
    """Build the Section-2 LP relaxation."""

    name = "formulate"

    def run(self, context: PipelineContext) -> None:
        start = time.perf_counter()
        context.formulation = build_sparse_formulation(
            context.problem, context.parameters.extensions
        )
        context.stage_seconds["formulate"] = time.perf_counter() - start


class SolveStage(PipelineStage):
    """Solve the LP and extract the fractional support."""

    name = "solve"

    def run(self, context: PipelineContext) -> None:
        start = time.perf_counter()
        context.lp_solution = context.formulation.solve()
        context.stage_seconds["solve_lp"] = time.perf_counter() - start
        context.fractional = context.formulation.fractional_solution(
            context.lp_solution
        ).support()


class RoundStage(PipelineStage):
    """Section-3 randomized rounding followed by the Section-5 GAP rounding."""

    name = "round"
    algorithm_label = "spaa03-lp-rounding"

    def run(self, context: PipelineContext) -> None:
        self._draw(context)
        self._integralize(context)
        context.solution = OverlaySolution.from_assignments(
            context.problem,
            context.gap.assignments,
            metadata=self.solution_metadata(context),
        )

    def _draw(self, context: PipelineContext) -> None:
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

    def _integralize(self, context: PipelineContext) -> None:
        start = time.perf_counter()
        context.gap = gap_round(
            context.problem, context.rounded, context.parameters.keep_degenerate_box
        )
        context.stage_seconds["gap"] = time.perf_counter() - start

    def solution_metadata(self, context: PipelineContext) -> dict:
        return {
            "algorithm": self.algorithm_label,
            "multiplier": context.rounded.multiplier,
            "rounding_attempts": context.rounding_attempts,
        }


class ExtendedRoundStage(RoundStage):
    """Rounding for the Section-6 extensions.

    When arc capacities or color constraints are enabled the remaining
    fractional assignments are entangled across demands, so the plain GAP
    rounding is replaced by the Section-6.5 path rounding over the computed
    entangled sets; otherwise this behaves exactly like :class:`RoundStage`.
    """

    name = "round"
    algorithm_label = "spaa03-lp-rounding-extended"

    def _integralize(self, context: PipelineContext) -> None:
        options = context.parameters.extensions
        needs_path_rounding = options.use_color_constraints or options.use_arc_capacities
        start = time.perf_counter()
        if needs_path_rounding:
            support = list(context.rounded.x.keys())
            if options.use_color_constraints:
                context.entangled_sets.extend(
                    color_entangled_sets(context.problem, support)
                )
            if options.use_arc_capacities:
                context.entangled_sets.extend(
                    arc_capacity_entangled_sets(context.problem, support)
                )
            context.path_rounding = path_round(
                context.problem,
                context.rounded,
                entangled_sets=context.entangled_sets,
                rng=context.rng,
                keep_degenerate_box=context.parameters.keep_degenerate_box,
            )
            context.gap = GapResult(
                assignments=context.path_rounding.assignments,
                flow_value=float(context.path_rounding.boxes_served),
                boxes_total=context.path_rounding.boxes_total,
                boxes_served=context.path_rounding.boxes_served,
                cost=context.path_rounding.cost,
            )
        else:
            context.gap = gap_round(
                context.problem, context.rounded, context.parameters.keep_degenerate_box
            )
        context.stage_seconds["gap"] = time.perf_counter() - start

    def solution_metadata(self, context: PipelineContext) -> dict:
        metadata = super().solution_metadata(context)
        metadata["path_rounding"] = context.path_rounding is not None
        return metadata


class RepairStage(PipelineStage):
    """Optional Section-7-style greedy repair of weight shortfalls."""

    name = "repair"

    def run(self, context: PipelineContext) -> None:
        start = time.perf_counter()
        if context.parameters.repair_shortfall:
            context.solution = repair_weight_shortfalls(
                context.problem,
                context.solution,
                fanout_slack=context.parameters.repair_fanout_slack,
            )
        context.stage_seconds["repair"] = time.perf_counter() - start


class AuditStage(PipelineStage):
    """Constraint-violation audit of the final solution."""

    name = "audit"

    def run(self, context: PipelineContext) -> None:
        start = time.perf_counter()
        context.solution_audit = audit_solution(context.problem, context.solution)
        context.stage_seconds["audit"] = time.perf_counter() - start


class DesignPipeline:
    """An ordered list of stages plus per-stage observation hooks.

    ``hooks`` are callables ``(stage_name, context) -> None`` invoked after
    each stage completes; they observe (and may annotate ``context.metadata``)
    but should not replace pipeline state -- use a custom stage for that.
    """

    def __init__(
        self,
        stages: list[PipelineStage] | None = None,
        hooks: list | None = None,
    ) -> None:
        self.stages = list(stages) if stages is not None else self.default_stages()
        self.hooks = list(hooks or [])

    @staticmethod
    def default_stages() -> list[PipelineStage]:
        return [
            FormulateStage(),
            SolveStage(),
            RoundStage(),
            RepairStage(),
            AuditStage(),
        ]

    @classmethod
    def standard(cls, hooks: list | None = None) -> "DesignPipeline":
        """The paper's algorithm: the pipeline behind the ``"spaa03"`` designer."""
        return cls(hooks=hooks)

    @classmethod
    def extended(cls, hooks: list | None = None) -> "DesignPipeline":
        """The Section-6 variant: the pipeline behind ``"spaa03-extended"``."""
        return cls(hooks=hooks).with_stage("round", ExtendedRoundStage())

    def stage(self, name: str) -> PipelineStage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        known = ", ".join(stage.name for stage in self.stages)
        raise KeyError(f"no stage named {name!r} (stages: {known})")

    def with_stage(self, name: str, replacement: PipelineStage) -> "DesignPipeline":
        """Return a new pipeline with the stage named ``name`` replaced.

        The receiver is left untouched, so a pipeline can safely serve as a
        shared template: ``base.with_stage("round", MyStage())`` never changes
        what ``base.run(...)`` executes.
        """
        self.stage(name)  # raises KeyError with the stage list if unknown
        return DesignPipeline(
            [replacement if stage.name == name else stage for stage in self.stages],
            list(self.hooks),
        )

    def run(
        self,
        problem: OverlayDesignProblem,
        parameters: DesignParameters | None = None,
        rng: np.random.Generator | None = None,
    ) -> PipelineContext:
        """Run every stage over ``problem`` and return the filled context.

        The RNG defaults to ``np.random.default_rng(parameters.rounding.seed)``
        and each stage consumes it in a fixed order, so solutions are
        bit-identical for a fixed seed.
        """
        parameters = parameters or DesignParameters()
        if rng is None:
            rng = np.random.default_rng(parameters.rounding.seed)
        context = PipelineContext(problem=problem, parameters=parameters, rng=rng)
        for stage in self.stages:
            stage.run(context)
            for hook in self.hooks:
                hook(stage.name, context)
        return context


__all__ = [
    "AuditStage",
    "DesignPipeline",
    "ExtendedRoundStage",
    "FormulateStage",
    "PipelineContext",
    "PipelineStage",
    "RepairStage",
    "RoundStage",
    "SolveStage",
]
