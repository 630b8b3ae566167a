"""Cache-aware request execution: :func:`run_request_cached`.

This is the single code path every serving entry point -- the async
:class:`~repro.serve.DesignService`, a :class:`~repro.serve.DesignSession`'s
initial design, the ``repro serve`` self-test -- funnels requests through.
It wraps :func:`repro.api.run_request` with the one line of the
content-addressed :class:`~repro.serve.cache.ArtifactCache`, the whole
result: a repeat-digest request is answered from the cached serialized
:class:`~repro.api.DesignResult` document, bit-identical to the original
compute (the cache stores the document, not the live object); the document
holds the evaluation sweep when the request asked for one.  A hit decodes
nothing: its solution and audit are decoded from the document on first read
(:func:`repro.api.types.stored_result`).  A miss is :func:`run_request`.

Determinism contract: a cached result is a pure function of its key's
content, so for a fixed request the result payload is bit-identical with the
cache hot or cold, and equal to a direct :func:`repro.api.run_request` run
-- caching moves wall-clock, never bits.  The per-request provenance lands
on ``DesignResult.cache``.
"""

from __future__ import annotations

import copy

from repro.api.registry import run_request
from repro.api.types import DesignRequest, DesignResult, result_to_dict, stored_result
from repro.core.serialization import problem_digest
from repro.serve.cache import ArtifactCache, request_digest


def run_request_cached(
    request: DesignRequest,
    cache: ArtifactCache,
    *,
    digest: str | None = None,
) -> DesignResult:
    """Run a design request through the content-addressed cache.

    Whole-result lookup by request digest first; a miss runs
    :func:`repro.api.run_request` (the design and, when requested, its
    evaluation sweep) and stores the serialized result document for the
    next repeat-digest request.

    The returned result carries ``result.cache`` with the digests, the
    ``"result"`` line's ``"hit"``/``"miss"`` state under ``stages``, and
    ``served_from_cache``.  Requests that cannot be digested (non-JSON
    options, seedless requests) run uncached with
    ``stages={"result": "bypass"}``.

    ``digest`` is an optional precomputed :func:`request_digest` -- the
    service passes the one it already computed for in-flight dedup.  The
    problem digest is memoised on the problem object, so a request digests
    its problem once whichever of the two computes it first.
    """
    # A hit reads the problem digest from the cached entry; a miss finds it
    # memoised by the request digest.
    r_digest = digest if digest is not None else request_digest(request)
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
            return result

    p_digest = problem_digest(request.problem)
    result = run_request(request)
    result.cache = {
        "request_digest": r_digest,
        "problem_digest": p_digest,
        "stages": {"result": "miss" if r_digest is not None else "bypass"},
        "served_from_cache": False,
    }

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


__all__ = ["run_request_cached"]
