"""Cache-aware request execution: :func:`run_request_cached`.

This is the single code path every serving entry point -- the async
:class:`~repro.serve.DesignService`, a :class:`~repro.serve.DesignSession`'s
initial design, the ``repro serve`` self-test -- funnels requests through.
It wraps :func:`repro.api.run_request` with two lines of the
content-addressed :class:`~repro.serve.cache.ArtifactCache`:

* whole-result: a repeat-digest request is answered from the cached
  serialized :class:`~repro.api.DesignResult` document, bit-identical to the
  original compute (the cache stores the document, not the live object);
  the document holds the evaluation sweep when the request asked for one.
  A hit decodes nothing: its solution and audit are decoded from the
  document on first read (:func:`repro.api.types.stored_result`);
* partition plans: ``sharded:*`` strategies reuse the plan line keyed on
  problem digest + partitioner knobs.  A plan holds names, so a hit skips
  only the grouping pass: the shards are cut from the request's problem.

Determinism contract: every cached artifact is a pure function of its key's
content, so for a fixed request the result payload is bit-identical with the
cache hot or cold, and equal to a direct :func:`repro.api.run_request` run
-- caching moves wall-clock, never bits.  The per-request provenance lands
on ``DesignResult.cache``.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Any

from repro.api.registry import get_designer
from repro.api.types import DesignRequest, DesignResult, result_to_dict, stored_result
from repro.core.serialization import problem_digest
from repro.serve.cache import ArtifactCache, plan_key, request_digest


def run_request_cached(
    request: DesignRequest,
    cache: ArtifactCache,
    *,
    session_id: str | None = None,
    digest: str | None = None,
) -> DesignResult:
    """Run a design request through the content-addressed cache.

    Whole-result lookup by request digest first; on a miss, the design runs
    with the plan cache (for ``sharded:*`` strategies), the evaluation sweep
    (when requested) runs on the design, and the serialized result document
    is stored for the next repeat-digest request.

    The returned result carries ``result.cache`` with the digests, the
    per-line ``"hit"``/``"miss"`` map, and ``served_from_cache``.  Requests
    that cannot be digested (non-JSON options, seedless requests) run
    uncached with ``stages={"result": "bypass"}``.

    ``digest`` is an optional precomputed :func:`request_digest` -- the
    service passes the one it already computed for in-flight dedup.  The
    problem digest is memoised on the problem object, so a request digests
    its problem once whichever of the two computes it first.
    """
    # A hit reads the problem digest from the cached entry; a miss needs it
    # for the plan key and finds it memoised by the request digest.
    r_digest = digest if digest is not None else request_digest(request)
    stages: dict[str, str] = {}

    if r_digest is not None:
        entry = cache.get("result", r_digest)
        if entry is not None:
            result = stored_result(entry["document"], request.problem)
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
    design_request = replace(request, strategy=designer.name, evaluation=None)
    result = _design_with_plan_cache(design_request, designer, cache, p_digest, stages)
    result.strategy = designer.name
    result.request_id = request.request_id
    if request.evaluation is not None and designer.produces_solution:
        result.evaluation = request.evaluation.evaluate(request.problem, result.solution)

    result.cache = {
        "request_digest": r_digest,
        "problem_digest": p_digest,
        "stages": stages,
        "served_from_cache": False,
    }
    if session_id is not None:
        result.cache["session_id"] = session_id

    if r_digest is not None:
        # The stored payload is the pure computation: provenance is stamped
        # per retrieval, never cached (a hit must say it was a hit).  The
        # encoding shares only the sweep's maps with ``result``; the stored
        # document keeps copies, so a caller editing the result cannot edit
        # a later hit.
        document = result_to_dict(result)
        document["cache"] = None
        document["evaluation"] = copy.deepcopy(document["evaluation"])
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


__all__ = ["run_request_cached"]
