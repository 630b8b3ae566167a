"""Cache-aware request execution: :func:`run_request_cached`.

This is the single code path every serving entry point -- the async
:class:`~repro.serve.DesignService`, a :class:`~repro.serve.DesignSession`'s
initial design, the ``repro serve`` self-test -- funnels requests through.
It wraps :func:`repro.api.run_request` with the content-addressed
:class:`~repro.serve.cache.ArtifactCache` at every level:

* whole-result: a repeat-digest request is answered from the cached
  serialized :class:`~repro.api.DesignResult` document, bit-identical to the
  original compute (the cache stores the document, not the live object);
* partition plans: ``sharded:*`` strategies reuse the plan line keyed on
  problem digest + partitioner knobs;
* formulations and LP solves: a :class:`StageCacheAdapter` is installed via
  :func:`repro.api.pipeline.use_stage_cache` for the duration of the design,
  so the pipeline (and any inline per-shard inner designs) skips LP assembly
  and the simplex run for content-identical subproblems;
* Monte-Carlo tables and whole evaluation sweeps, via the
  ``table_provider`` hook of :func:`repro.simulation.evaluate_design`.

Determinism contract: every cached artifact is a pure function of its key's
content, so for a fixed request the result payload is bit-identical with the
cache hot, cold, or absent -- caching moves wall-clock, never bits.  The
per-request provenance lands on ``DesignResult.cache``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Mapping

from repro.api.pipeline import StageCache, use_stage_cache
from repro.api.registry import get_designer
from repro.api.types import (
    DesignRequest,
    DesignResult,
    evaluation_spec_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.core.problem import OverlayDesignProblem
from repro.core.serialization import (
    canonical_digest,
    problem_digest,
    solution_digest,
)
from repro.serve.cache import (
    ArtifactCache,
    formulation_key,
    path_table_key,
    plan_key,
    request_digest,
)


class StageCacheAdapter(StageCache):
    """Bind the pipeline's stage-cache protocol to an :class:`ArtifactCache`.

    One adapter is created per served request (or per session event); it
    additionally tallies per-stage hit/miss counts so the serving layer can
    stamp ``DesignResult.cache["stages"]`` -- a single design may run the
    formulate/solve stages many times (once per shard), so the stamp
    collapses the tallies to ``"hit"`` / ``"miss"`` / ``"partial"``.
    """

    def __init__(self, cache: ArtifactCache) -> None:
        self.cache = cache
        self.counts = {
            "formulate": {"hit": 0, "miss": 0},
            "solve": {"hit": 0, "miss": 0},
        }

    def get_formulation(self, problem, parameters):
        key = formulation_key(problem_digest(problem), parameters)
        value = self.cache.get("formulation", key)
        self.counts["formulate"]["hit" if value is not None else "miss"] += 1
        return value

    def put_formulation(self, problem, parameters, formulation):
        key = formulation_key(problem_digest(problem), parameters)
        self.cache.put("formulation", key, formulation)

    def get_lp(self, problem, parameters):
        key = formulation_key(problem_digest(problem), parameters)
        value = self.cache.get("lp", key)
        self.counts["solve"]["hit" if value is not None else "miss"] += 1
        return value

    def put_lp(self, problem, parameters, lp_solution, fractional):
        key = formulation_key(problem_digest(problem), parameters)
        self.cache.put("lp", key, (lp_solution, fractional))

    def stage_states(self) -> dict[str, str]:
        states: dict[str, str] = {}
        for stage, counts in self.counts.items():
            if counts["hit"] == 0 and counts["miss"] == 0:
                continue
            if counts["miss"] == 0:
                states[stage] = "hit"
            elif counts["hit"] == 0:
                states[stage] = "miss"
            else:
                states[stage] = "partial"
        return states


def make_table_provider(
    cache: ArtifactCache, p_digest: str, s_digest: str, seed: int
) -> Callable:
    """The :func:`~repro.simulation.evaluate_design` hook over the cache."""
    from repro.simulation.montecarlo import compile_path_table

    def provider(
        scenario: str,
        problem: OverlayDesignProblem,
        solution,
        failures,
        num_packets: int,
        node_isp: Mapping[str, str | None],
    ):
        key = path_table_key(p_digest, s_digest, scenario, seed, num_packets)
        table = cache.get("path_table", key)
        if table is None:
            table = compile_path_table(
                problem, solution, failures, num_packets, dict(node_isp)
            )
            cache.put("path_table", key, table)
        return table

    return provider


def _evaluate_cached(
    request: DesignRequest,
    result: DesignResult,
    cache: ArtifactCache,
    p_digest: str,
    stages: dict[str, str],
) -> None:
    """Run :meth:`EvaluationSpec.evaluate`, the registry's sweep, through the cache.

    The sweep is a pure function of ``(problem, solution, spec)``, so both
    the whole sweep and the per-scenario compiled path tables are cacheable.
    """
    spec = request.evaluation
    s_digest = solution_digest(result.solution)
    key = canonical_digest(
        {
            "problem": p_digest,
            "solution": s_digest,
            "spec": evaluation_spec_to_dict(spec),
        }
    )
    evaluation = cache.get("evaluation", key)
    stages["evaluate"] = "hit" if evaluation is not None else "miss"
    if evaluation is None:
        evaluation = spec.evaluate(
            request.problem,
            result.solution,
            table_provider=make_table_provider(cache, p_digest, s_digest, spec.seed),
        )
        cache.put("evaluation", key, evaluation)
    result.evaluation = {
        name: dict(metrics) for name, metrics in evaluation.items()
    }


def run_request_cached(
    request: DesignRequest,
    cache: ArtifactCache | None,
    *,
    bypass: bool = False,
    session_id: str | None = None,
    digest: str | None = None,
) -> DesignResult:
    """Run a design request through the content-addressed cache.

    With ``cache=None`` or ``bypass=True`` this is :func:`repro.api.
    run_request` plus a provenance stamp -- the bypass escape hatch
    documented in ``docs/serving.md``.  Otherwise: whole-result lookup by
    request digest first; on a miss, the design runs with the plan cache
    (for ``sharded:*`` strategies) and the formulate/solve stage cache
    installed, the evaluation sweep (when requested) runs through the
    path-table cache, and the serialized result document is stored for the
    next repeat-digest request.

    The returned result carries ``result.cache`` with the digests, the
    per-stage ``"hit"``/``"miss"``/``"partial"`` map, and
    ``served_from_cache``.  Requests that cannot be digested (non-JSON
    options) run uncached with ``stages={"result": "bypass"}``.

    ``digest`` is an optional precomputed :func:`request_digest` -- the
    service passes the one it already computed for in-flight dedup.  The
    problem digest is memoised on the problem object, so a request digests
    its problem once whichever of the two computes it first.
    """
    if cache is None or bypass:
        from repro.api.registry import run_request

        result = run_request(request)
        result.cache = {
            "request_digest": None,
            "problem_digest": None,
            "stages": {},
            "served_from_cache": False,
            "bypass": True,
        }
        if session_id is not None:
            result.cache["session_id"] = session_id
        return result

    # A hit reads the problem digest from the cached entry; a miss needs it
    # for the stage keys and finds it memoised by the request digest.
    r_digest = digest if digest is not None else request_digest(request)
    stages: dict[str, str] = {}

    if r_digest is not None:
        entry = cache.get("result", r_digest)
        if entry is not None:
            result = result_from_dict(entry["document"], request.problem)
            result.request_id = request.request_id
            result.cache = {
                "request_digest": r_digest,
                "problem_digest": entry["problem_digest"],
                "stages": {"result": "hit"},
                "served_from_cache": True,
            }
            if session_id is not None:
                result.cache["session_id"] = session_id
            return result
        stages["result"] = "miss"
    else:
        stages["result"] = "bypass"

    p_digest = problem_digest(request.problem)
    designer = get_designer(request.strategy)
    design_request = request
    if request.evaluation is not None:
        design_request = replace(request, evaluation=None)
    if design_request.strategy != designer.name:
        design_request = replace(design_request, strategy=designer.name)

    adapter = StageCacheAdapter(cache)
    with use_stage_cache(adapter):
        result = _design_with_plan_cache(
            design_request, designer, cache, p_digest, stages
        )
    result.strategy = designer.name
    result.request_id = request.request_id
    stages.update(adapter.stage_states())

    if request.evaluation is not None and designer.produces_solution:
        _evaluate_cached(request, result, cache, p_digest, stages)

    result.cache = {
        "request_digest": r_digest,
        "problem_digest": p_digest,
        "stages": stages,
        "served_from_cache": False,
    }
    if session_id is not None:
        result.cache["session_id"] = session_id

    if r_digest is not None:
        document = result_to_dict(result)
        # The stored payload is the pure computation: provenance is stamped
        # per retrieval, never cached (a hit must say it was a hit).
        document = dict(document)
        document["cache"] = None
        cache.put(
            "result", r_digest, {"document": document, "problem_digest": p_digest}
        )
    return result


def _design_with_plan_cache(
    request: DesignRequest,
    designer: Any,
    cache: ArtifactCache,
    p_digest: str,
    stages: dict[str, str],
) -> DesignResult:
    """Run the design, reusing the partition plan for sharded strategies."""
    from repro.scale.pipeline import SHARDED_PREFIX, design_sharded, sharded_options

    if not designer.name.startswith(SHARDED_PREFIX):
        return designer.design(request)

    inner = get_designer(designer.name[len(SHARDED_PREFIX):])
    options = sharded_options(request.options, f"strategy {designer.name!r}")
    key = plan_key(p_digest, options["partitioner"], options["shards"])
    plan = cache.get("plan", key)
    stages["plan"] = "hit" if plan is not None else "miss"
    if plan is None:
        from repro.scale.partition import build_partition

        plan = build_partition(
            request.problem,
            partitioner=options["partitioner"],
            shards=options["shards"],
        )
        cache.put("plan", key, plan)
    return design_sharded(request, inner, plan=plan)


__all__ = [
    "StageCacheAdapter",
    "make_table_provider",
    "run_request_cached",
]
