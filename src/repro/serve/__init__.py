"""The design-service layer: content-addressed caching, sessions, serving.

Three tiers over the Designer registry (:mod:`repro.api`):

* :class:`ArtifactCache` (:mod:`repro.serve.cache`) -- a thread-safe LRU of
  whole serialized results (evaluation sweeps included), content-addressed
  by the canonical digests of :mod:`repro.core.serialization`;
* :class:`DesignSession` (:mod:`repro.serve.session`) -- a long-lived
  standing problem + design streaming :class:`~repro.incremental.
  ProblemDelta` events through the incremental engine with plan reuse;
* :class:`DesignService` / :class:`DesignServer` (:mod:`repro.serve.
  service`) -- the async queue + worker-pool front with in-flight request
  deduplication, exposed over HTTP by the ``repro serve`` CLI verb.

The invariant everything here maintains: caching moves wall-clock, never
bits.  See ``docs/serving.md`` for the cache-key and determinism contracts.
"""

from repro.serve.cache import ArtifactCache, CacheStats, request_digest
from repro.serve.execute import run_request_cached
from repro.serve.service import (
    DesignServer,
    DesignService,
    DesignTicket,
    ServiceOverloadedError,
    run_self_test,
)
from repro.serve.session import DesignSession, SessionEvent

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "DesignServer",
    "DesignService",
    "DesignSession",
    "DesignTicket",
    "ServiceOverloadedError",
    "SessionEvent",
    "request_digest",
    "run_request_cached",
    "run_self_test",
]
