"""The standard designer catalogue: paper algorithm, extension, six baselines.

Importing this module registers every built-in strategy with
:mod:`repro.api.registry`:

========================  ===================================================
``spaa03``                the paper's LP -> rounding -> GAP pipeline
``spaa03-extended``       Section-6 variant (path rounding when entangled)
``greedy``                cost-effectiveness greedy (baseline)
``naive-quality-first``   most-reliable-first per demand (baseline)
``single-tree``           one reflector per demand, IP-multicast-like (baseline)
``random``                random feasible-ish assignment (baseline)
``milp-exact``            exact Section-2 IP via HiGHS branch-and-cut (baseline)
``lp-bound``              fractional LP optimum, bound only (baseline)
========================  ===================================================

These registrations are the only way to run a strategy: callers go through
``get_designer(name).design(request)`` or ``run_request(request)``, and the
paper algorithm's steps are observable through
:class:`~repro.api.pipeline.DesignPipeline`'s hooks.
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.analysis.audit import audit_solution
from repro.api.pipeline import DesignPipeline, PipelineContext
from repro.api.registry import register_designer
from repro.api.types import DesignRequest, DesignResult
from repro.baselines.greedy import _greedy_design_impl
from repro.baselines.milp import milp_exact_design
from repro.baselines.naive import _naive_quality_first_design_impl
from repro.baselines.random_assignment import _random_design_impl
from repro.baselines.single_tree import _single_tree_design_impl
from repro.core.algorithm import fractional_lower_bound
from repro.core.schema import BOOLEAN, Doc, Field, integer, number
from repro.core.solution import OverlaySolution

#: Each baseline's options, with domains and defaults.  A fanout slack at or
#: below 0 would leave every reflector without capacity.
_SLACK = Field("fanout_slack", number(0.0, low_open=True), default=1.0)
_SLACK_OPTIONS = Doc(dict, [_SLACK])
_SINGLE_TREE_OPTIONS = Doc(dict, [_SLACK, Field("prefer_cheap", BOOLEAN, default=False)])
_RANDOM_OPTIONS = Doc(dict, [Field("seed", integer(0), nullable=True, default=None), _SLACK])
MILP_OPTIONS = Doc(
    dict,
    [
        Field("time_limit", number(0.0, low_open=True), nullable=True, default=None),
        Field("mip_gap", number(0.0), nullable=True, default=None),
        Field("symmetry_breaking", BOOLEAN, default=True),
    ],
)


def _strategy_options(request: DesignRequest, options: Doc = Doc(dict, [])) -> dict:
    """``request.options`` decoded through the strategy's option table."""
    return options.options(request.options, f"strategy {request.strategy!r}")


def _pipeline_result(request: DesignRequest, context: PipelineContext) -> DesignResult:
    metadata = {
        **context.metadata,
        "multiplier": context.rounded.multiplier,
        "rounding_attempts": context.rounding_attempts,
    }
    if context.path_rounding is not None:
        metadata["path_rounding"] = True
    return DesignResult(
        strategy=request.strategy,
        solution=context.solution,
        lower_bound=context.lp_lower_bound,
        stage_seconds=dict(context.stage_seconds),
        audit=context.solution_audit,
        metadata=metadata,
        request_id=request.request_id,
        report=context,
    )


def _baseline_result(
    request: DesignRequest,
    solution: OverlaySolution,
    elapsed: float,
    metadata: Mapping | None = None,
) -> DesignResult:
    start = time.perf_counter()
    audit = audit_solution(request.problem, solution)
    audit_seconds = time.perf_counter() - start
    return DesignResult(
        strategy=request.strategy,
        solution=solution,
        stage_seconds={"design": elapsed, "audit": audit_seconds},
        audit=audit,
        metadata=dict(metadata or {}),
        request_id=request.request_id,
    )


# ---------------------------------------------------------------------------
# The paper's algorithm and its Section-6 extension
# ---------------------------------------------------------------------------


@register_designer(
    "spaa03",
    description="SPAA'03 LP-rounding pipeline (formulate/solve/round/repair/audit)",
    in_comparisons=False,
)
def _run_spaa03(request: DesignRequest) -> DesignResult:
    _strategy_options(request)
    context = DesignPipeline.standard().run(request.problem, request.parameters)
    return _pipeline_result(request, context)


@register_designer(
    "spaa03-extended",
    description="Section-6 extended pipeline (path rounding for entangled constraints)",
    in_comparisons=False,
)
def _run_spaa03_extended(request: DesignRequest) -> DesignResult:
    _strategy_options(request)
    context = DesignPipeline.extended().run(request.problem, request.parameters)
    return _pipeline_result(request, context)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


@register_designer(
    "greedy",
    description="cost-effectiveness greedy (weighted multi-cover)",
    baseline=True,
)
def _run_greedy(request: DesignRequest) -> DesignResult:
    options = _strategy_options(request, _SLACK_OPTIONS)
    start = time.perf_counter()
    solution = _greedy_design_impl(request.problem, **options)
    return _baseline_result(request, solution, time.perf_counter() - start)


@register_designer(
    "naive-quality-first",
    description="most-reliable reflectors first, cost-blind",
    baseline=True,
)
def _run_naive(request: DesignRequest) -> DesignResult:
    options = _strategy_options(request, _SLACK_OPTIONS)
    start = time.perf_counter()
    solution = _naive_quality_first_design_impl(request.problem, **options)
    return _baseline_result(request, solution, time.perf_counter() - start)


@register_designer(
    "single-tree",
    description="one reflector per demand (IP-multicast-like, no redundancy)",
    baseline=True,
)
def _run_single_tree(request: DesignRequest) -> DesignResult:
    options = _strategy_options(request, _SINGLE_TREE_OPTIONS)
    start = time.perf_counter()
    solution = _single_tree_design_impl(request.problem, **options)
    return _baseline_result(request, solution, time.perf_counter() - start)


@register_designer(
    "random",
    description="uniformly random feasible-ish assignment (sanity floor)",
    baseline=True,
)
def _run_random(request: DesignRequest) -> DesignResult:
    options = _strategy_options(request, _RANDOM_OPTIONS)
    if options["seed"] is None:
        options["seed"] = request.seed
    start = time.perf_counter()
    solution = _random_design_impl(request.problem, **options)
    return _baseline_result(request, solution, time.perf_counter() - start)


@register_designer(
    "milp-exact",
    description="exact Section-2 IP via HiGHS branch-and-cut (the integer optimum)",
    baseline=True,
    in_comparisons=False,
)
def _run_milp_exact(request: DesignRequest) -> DesignResult:
    options = _strategy_options(request, MILP_OPTIONS)
    start = time.perf_counter()
    result = milp_exact_design(request.problem, extensions=request.parameters.extensions, **options)
    elapsed = time.perf_counter() - start
    design_result = _baseline_result(
        request,
        result.solution,
        elapsed,
        metadata={
            "optimal_cost": result.optimal_cost,
            "milp_status": result.status,
            "mip_gap": result.mip_gap,
            "mip_dual_bound": result.mip_dual_bound,
            "node_count": result.node_count,
            "symmetry_rows": result.symmetry_rows,
            "symmetry_classes": result.symmetry_classes,
            "time_limit": options["time_limit"],
            "mip_gap_limit": options["mip_gap"],
        },
    )
    design_result.lower_bound = result.mip_dual_bound
    return design_result


@register_designer(
    "lp-bound",
    description="fractional LP optimum (cost lower bound, no integral design)",
    baseline=True,
    in_comparisons=False,
    produces_solution=False,
)
def _run_lp_bound(request: DesignRequest) -> DesignResult:
    _strategy_options(request)
    start = time.perf_counter()
    lower_bound = fractional_lower_bound(request.problem, request.parameters.extensions)
    elapsed = time.perf_counter() - start
    solution = OverlaySolution.from_assignments(
        request.problem, {}, metadata={"algorithm": "lp-bound"}
    )
    return DesignResult(
        strategy=request.strategy,
        solution=solution,
        lower_bound=lower_bound,
        stage_seconds={"solve_lp": elapsed},
        request_id=request.request_id,
    )
