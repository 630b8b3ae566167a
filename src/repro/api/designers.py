"""The standard designer catalogue: paper algorithm, extension, seven baselines.

Importing this module registers every built-in strategy with
:mod:`repro.api.registry`:

========================  ===================================================
``spaa03``                the paper's LP -> rounding -> GAP pipeline
``spaa03-extended``       Section-6 variant (path rounding when entangled)
``greedy``                cost-effectiveness greedy (baseline)
``naive-quality-first``   most-reliable-first per demand (baseline)
``single-tree``           one reflector per demand, IP-multicast-like (baseline)
``random``                random feasible-ish assignment (baseline)
``exact``                 brute-force optimum for tiny instances (baseline)
``milp-exact``            exact Section-2 IP via a MILP backend (baseline)
``lp-bound``              fractional LP optimum, bound only (baseline)
========================  ===================================================

The legacy entry points (``design_overlay``, ``greedy_design``, ...) are thin
compatibility wrappers over these registrations, so every caller -- old or
new -- runs the exact same code and produces bit-identical solutions for a
fixed seed.
"""

from __future__ import annotations

import time
from typing import Mapping

import numpy as np

from repro.analysis.audit import audit_solution
from repro.api.pipeline import DesignPipeline, PipelineContext
from repro.api.registry import register_designer
from repro.api.types import DesignRequest, DesignResult
from repro.baselines.exact import _exact_design_impl
from repro.baselines.greedy import _greedy_design_impl
from repro.baselines.milp import milp_exact_design
from repro.baselines.naive import _naive_quality_first_design_impl
from repro.baselines.random_design import _random_design_impl
from repro.baselines.single_tree import _single_tree_design_impl
from repro.core.algorithm import fractional_lower_bound
from repro.core.solution import OverlaySolution


def _strategy_options(request: DesignRequest, **defaults) -> dict:
    """Merge ``request.options`` over ``defaults``, rejecting unknown keys."""
    unknown = sorted(set(request.options) - set(defaults))
    if unknown:
        raise ValueError(
            f"unknown option(s) {unknown} for strategy {request.strategy!r} "
            f"(accepted: {sorted(defaults)})"
        )
    return {**defaults, **request.options}


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
        report=context.report(),
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
    # warm_start is advisory (see repro.lp.SolveOptions): honored only by
    # backends with MIP starts, so default results never change.
    options = _strategy_options(request, warm_start=None)
    context = DesignPipeline.standard().run(
        request.problem, request.parameters, warm_start=options["warm_start"]
    )
    return _pipeline_result(request, context)


@register_designer(
    "spaa03-extended",
    description="Section-6 extended pipeline (path rounding for entangled constraints)",
    in_comparisons=False,
)
def _run_spaa03_extended(request: DesignRequest) -> DesignResult:
    options = _strategy_options(request, warm_start=None)
    context = DesignPipeline.extended().run(
        request.problem, request.parameters, warm_start=options["warm_start"]
    )
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
    options = _strategy_options(request, fanout_slack=1.0)
    start = time.perf_counter()
    solution = _greedy_design_impl(request.problem, **options)
    return _baseline_result(request, solution, time.perf_counter() - start)


@register_designer(
    "naive-quality-first",
    description="most-reliable reflectors first, cost-blind",
    baseline=True,
)
def _run_naive(request: DesignRequest) -> DesignResult:
    options = _strategy_options(request, fanout_slack=1.0)
    start = time.perf_counter()
    solution = _naive_quality_first_design_impl(request.problem, **options)
    return _baseline_result(request, solution, time.perf_counter() - start)


@register_designer(
    "single-tree",
    description="one reflector per demand (IP-multicast-like, no redundancy)",
    baseline=True,
)
def _run_single_tree(request: DesignRequest) -> DesignResult:
    options = _strategy_options(request, fanout_slack=1.0, prefer_cheap=False)
    start = time.perf_counter()
    solution = _single_tree_design_impl(request.problem, **options)
    return _baseline_result(request, solution, time.perf_counter() - start)


@register_designer(
    "random",
    description="uniformly random feasible-ish assignment (sanity floor)",
    baseline=True,
)
def _run_random(request: DesignRequest) -> DesignResult:
    options = _strategy_options(request, rng=None, seed=None, fanout_slack=1.0)
    rng = options.pop("rng")
    seed = options.pop("seed")
    if rng is None:
        rng = seed if seed is not None else request.seed
    start = time.perf_counter()
    solution = _random_design_impl(request.problem, rng=rng, **options)
    return _baseline_result(request, solution, time.perf_counter() - start)


@register_designer(
    "exact",
    description="brute-force optimum (tiny instances only)",
    baseline=True,
    in_comparisons=False,
)
def _run_exact(request: DesignRequest) -> DesignResult:
    options = _strategy_options(
        request, max_subset_size=3, max_search_nodes=2_000_000
    )
    start = time.perf_counter()
    result = _exact_design_impl(request.problem, **options)
    return _baseline_result(
        request,
        result.solution,
        time.perf_counter() - start,
        metadata={
            "optimal_cost": result.optimal_cost,
            "nodes_explored": result.nodes_explored,
        },
    )


@register_designer(
    "milp-exact",
    description="exact Section-2 IP via a MILP backend (scales past brute force)",
    baseline=True,
    in_comparisons=False,
)
def _run_milp_exact(request: DesignRequest) -> DesignResult:
    options = _strategy_options(
        request,
        time_limit=None,
        mip_gap=None,
        symmetry_breaking=True,
        warm_start=None,
    )
    if options["warm_start"] is not None:
        # Warm starts arrive as plain lists when the request came over JSON.
        options["warm_start"] = np.asarray(options["warm_start"], dtype=float)
    backend = request.parameters.solver_backend
    if backend == "highs":
        # The design-parameter default is the LP backend; an integer solve
        # needs a MIP-capable one unless the caller explicitly picked.
        backend = "highs-mip"
    start = time.perf_counter()
    result = milp_exact_design(
        request.problem,
        extensions=request.parameters.extensions,
        backend=backend,
        **options,
    )
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
            "solver_backend": result.backend,
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
    lower_bound = fractional_lower_bound(
        request.problem,
        request.parameters.extensions,
        solver_backend=request.parameters.solver_backend,
    )
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
