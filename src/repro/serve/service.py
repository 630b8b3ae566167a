"""The async serving front: queue + worker pool + in-flight deduplication.

:class:`DesignService` is the process-local front the ``repro serve`` CLI
exposes over HTTP: submissions enqueue versioned
:class:`~repro.api.DesignRequest` documents, a pool of worker threads drains
the queue through :func:`repro.serve.execute.run_request_cached` (sharing one
:class:`~repro.serve.cache.ArtifactCache`), and callers hold a
:class:`DesignTicket` -- a future that resolves to the
:class:`~repro.api.DesignResult`.

In-flight deduplication rides the same content digests as the cache: two
submissions with equal :func:`~repro.serve.cache.request_digest` while the
first is still queued or running share one computation; the second ticket
resolves to the same payload re-stamped with its own ``request_id`` and a
``deduplicated`` marker.  Combined with the whole-result cache this gives
three cost tiers per digest: compute once, join in-flight, then serve from
cache.

Workers are *threads*, not processes: the LP solve and the Monte-Carlo sweep
release the GIL inside scipy/numpy kernels, per-request fan-out still uses
the deterministic process executor underneath (``options["jobs"]``), and
threads are what lets one cache instance and one dedup map be shared without
serialization.  Determinism per request is untouched -- each request's
result depends only on its own content and seed, never on queue order.
"""

from __future__ import annotations

import copy
import json
import math
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.api.types import (
    DesignRequest,
    DesignResult,
    request_from_dict,
    result_to_dict,
    unread_document,
)
from repro.core.serialization import DocumentError
from repro.serve.cache import ArtifactCache, request_digest
from repro.serve.execute import run_request_cached

_SHUTDOWN = object()


class ServiceOverloadedError(RuntimeError):
    """Raised by :meth:`DesignService.submit` when the bounded queue is full.

    Backpressure, not failure: the request was never enqueued, so the caller
    should retry later (the HTTP front maps this to ``429 Too Many Requests``
    with a ``Retry-After`` hint).
    """


@dataclass
class DesignTicket:
    """A submitted request's handle: digest, dedup marker, and a future."""

    request_id: str | None
    digest: str | None
    deduplicated: bool
    future: Future

    def result(self, timeout: float | None = None) -> DesignResult:
        """Block for the design result (re-stamped for deduplicated tickets).

        A re-stamped result is a shallow copy that reads no field, so a
        served cache hit stays unread (:func:`~repro.api.types.unread_document`).
        """
        result = self.future.result(timeout=timeout)
        if self.deduplicated:
            cache_block = dict(result.cache or {})
            cache_block["deduplicated"] = True
            result = copy.copy(result)
            result.cache, result.request_id = cache_block, self.request_id
        return result

    def done(self) -> bool:
        return self.future.done()


class DesignService:
    """Queue + worker pool over :func:`run_request_cached`.

    Use as a context manager (or call :meth:`start` / :meth:`stop`).  One
    service owns one :class:`ArtifactCache`; submit from any thread.
    """

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        workers: int = 2,
        max_queue: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.cache = cache if cache is not None else ArtifactCache()
        self.workers = workers
        self.max_queue = max_queue
        # Bounded only for submissions: shutdown sentinels and the workers
        # use blocking puts/gets, so `stop()` still drains cleanly.
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue or 0)
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self._latencies: list[float] = []
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "deduplicated": 0,
            "errors": 0,
            "rejected": 0,
        }
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "DesignService":
        if self._started:
            return self
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"repro-serve-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        if not self._started:
            return
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join()
        self._threads.clear()
        self._started = False

    def __enter__(self) -> "DesignService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- submission --------------------------------------------------------

    def submit(self, request: DesignRequest | dict) -> DesignTicket:
        """Enqueue a request (object or versioned JSON document).

        Anything that is not a :class:`DesignRequest` is decoded as a
        document, so a non-object JSON value raises ``ValueError``.

        Returns immediately; join the in-flight computation when an equal-
        digest request is already queued or running.  With ``max_queue`` set
        and the queue full, raises :class:`ServiceOverloadedError` instead of
        enqueueing (deduplicated joins never consume a queue slot, so repeat
        digests still get tickets under overload).
        """
        if not self._started:
            raise RuntimeError("DesignService is not started (use 'with service:')")
        if not isinstance(request, DesignRequest):
            request = request_from_dict(request)
        digest = request_digest(request)
        with self._lock:
            self._counters["submitted"] += 1
            if digest is not None:
                existing = self._inflight.get(digest)
                if existing is not None:
                    self._counters["deduplicated"] += 1
                    return DesignTicket(
                        request_id=request.request_id,
                        digest=digest,
                        deduplicated=True,
                        future=existing,
                    )
            future: Future = Future()
            if digest is not None:
                self._inflight[digest] = future
        try:
            self._queue.put_nowait((request, digest, future, time.perf_counter()))
        except queue.Full:
            with self._lock:
                self._counters["rejected"] += 1
                # The future was never handed to a worker: retire its dedup
                # line so later submits do not join a computation that will
                # never run.
                if digest is not None and self._inflight.get(digest) is future:
                    del self._inflight[digest]
            raise ServiceOverloadedError(
                f"design queue is full ({self.max_queue} pending); retry later"
            ) from None
        return DesignTicket(
            request_id=request.request_id,
            digest=digest,
            deduplicated=False,
            future=future,
        )

    def run(self, request: DesignRequest | dict, timeout: float | None = None):
        """Submit and block: the synchronous convenience wrapper."""
        return self.submit(request).result(timeout=timeout)

    # -- workers -----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            request, digest, future, submitted = item
            try:
                result = run_request_cached(request, self.cache, digest=digest)
            except BaseException as error:  # noqa: BLE001 - forwarded to caller
                with self._lock:
                    self._counters["errors"] += 1
                    if digest is not None:
                        self._inflight.pop(digest, None)
                future.set_exception(error)
                continue
            latency = time.perf_counter() - submitted
            with self._lock:
                self._counters["completed"] += 1
                self._latencies.append(latency)
                if digest is not None:
                    # Remove *before* resolving: late equal-digest submits
                    # must go through the result cache (a fresh fast line)
                    # rather than join a future that is about to be retired.
                    self._inflight.pop(digest, None)
            future.set_result(result)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            latencies = sorted(self._latencies)
            counters = dict(self._counters)
            inflight = len(self._inflight)
        snapshot = {
            **counters,
            "in_flight": inflight,
            "queue_depth": self._queue.qsize(),
            "max_queue": self.max_queue,
            "workers": self.workers,
            "latency_p50_seconds": _percentile(latencies, 50.0),
            "latency_p99_seconds": _percentile(latencies, 99.0),
            "cache": self.cache.stats().as_dict(),
        }
        return snapshot


def _percentile(sorted_values: list[float], q: float) -> float | None:
    """Nearest-rank percentile of an ascending list (``None`` when empty).

    The rank is ``ceil(q * n / 100)``, clamped to ``[1, n]``; multiplying
    before dividing keeps an integral rank exact.
    """
    if not sorted_values:
        return None
    count = len(sorted_values)
    rank = max(1, min(count, math.ceil(q * count / 100.0)))
    return float(sorted_values[rank - 1])


# -- HTTP front ------------------------------------------------------------


class _ServiceHandler(BaseHTTPRequestHandler):
    """Minimal JSON-over-HTTP front: POST /design, GET /stats, GET /healthz."""

    service: DesignService  # injected by DesignServer

    def log_message(self, *args: Any) -> None:  # pragma: no cover - silence
        pass

    def _respond(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._respond(200, {"status": "ok"})
        elif self.path == "/stats":
            self._respond(200, self.service.stats())
        else:
            self._respond(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/design":
            self._respond(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                # ``rfile.read(-1)`` would block until the client hangs up.
                raise ValueError(f"Content-Length must be >= 0, got {length}")
            request = request_from_dict(json.loads(self.rfile.read(length) or b"{}"))
            if request.evaluation is not None and request.evaluation.scenario_files:
                # The catalogue is process-wide: a client file could redefine a
                # shipped scenario for every client and every cached sweep.
                raise DocumentError(
                    "evaluation.scenario_files is not accepted over HTTP (the "
                    "server never opens client-named paths); name registered "
                    "scenarios in evaluation.scenarios instead"
                )
            ticket = self.service.submit(request)
            result = ticket.result()
        except ServiceOverloadedError as error:
            self._respond(429, {"error": str(error)}, headers={"Retry-After": "1"})
            return
        except (ValueError, KeyError) as error:
            self._respond(400, {"error": str(error)})
            return
        self._respond(200, _response_document(result))


def _response_document(result: DesignResult) -> dict:
    """The ``/design`` response body of ``result``: ``result_to_dict(result)``.

    A cache hit whose solution and audit nobody has read yet is written as
    the document it was served from, with its own ``cache`` and
    ``request_id`` spliced in: the same document, with no decode and no
    re-encode.
    """
    stored = unread_document(result)
    if stored is None:
        return result_to_dict(result)
    return {**stored, "cache": result.cache, "request_id": result.request_id}


class DesignServer:
    """The ``repro serve`` HTTP server wrapping a :class:`DesignService`.

    Binds ``host:port`` (port 0 picks an ephemeral port, exposed as
    ``server.port``) and serves requests on a background thread.  Use as a
    context manager; stopping the server stops the service too.
    """

    def __init__(
        self,
        service: DesignService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service if service is not None else DesignService()
        handler = type("_BoundHandler", (_ServiceHandler,), {"service": self.service})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "DesignServer":
        self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.service.stop()

    def __enter__(self) -> "DesignServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


# -- self-test -------------------------------------------------------------


def run_self_test(verbose: bool = True) -> dict:
    """The ``repro serve --self-test`` round-trip (also a CI gate).

    Submits mixed requests through a live service -- fresh, repeat digest,
    another strategy, one with a small reliability sweep, and a churn delta
    through a :class:`DesignSession` -- and checks the serving determinism
    contract end to end:

    * every served payload is bit-identical to a direct, cache-free
      :func:`repro.api.run_request` run (modulo timings and the ``cache``
      provenance block), and so is the body the HTTP front writes for the
      replayed request (a cache hit, written from its stored document);
    * the session event matches a standalone ``design_incremental`` call;
    * the cache saw at least one hit.

    Returns a JSON-friendly report; raises ``AssertionError`` on violation.
    """
    import urllib.request

    from repro.api.registry import run_request
    from repro.api.types import EvaluationSpec, request_to_dict
    from repro.core.algorithm import DesignParameters
    from repro.core.serialization import solution_digest
    from repro.incremental.churn import SinkChurnConfig, churn_stream
    from repro.incremental.engine import design_incremental
    from repro.serve.session import DesignSession
    from repro.workloads.random_instances import RandomInstanceConfig, random_problem

    problem = random_problem(
        RandomInstanceConfig(num_reflectors=12, num_sinks=24, num_streams=2),
        rng=1307,
    )
    parameters = DesignParameters(seed=17)

    def payload(result: DesignResult) -> dict:
        document = result_to_dict(result)
        document.pop("stage_seconds", None)
        document.pop("cache", None)
        return document

    checks: list[str] = []
    with DesignServer() as server:
        service = server.service
        requests = [
            DesignRequest(
                problem=problem, parameters=parameters, strategy="spaa03",
                request_id="fresh",
            ),
            DesignRequest(
                problem=problem, parameters=parameters, strategy="spaa03",
                request_id="repeat",
            ),
            DesignRequest(
                problem=problem, parameters=parameters, strategy="greedy",
                request_id="mixed",
            ),
            DesignRequest(
                problem=problem, parameters=parameters, strategy="spaa03",
                evaluation=EvaluationSpec(scenarios=("baseline", "isp-outage"), trials=2),
                request_id="evaluated",
            ),
        ]
        tickets = [service.submit(request) for request in requests]
        results = [ticket.result(timeout=120) for ticket in tickets]
        # A fourth submit after the first completed: must be a whole-result
        # cache hit (the in-flight line is retired, the cached line is not).
        replay = service.run(
            DesignRequest(
                problem=problem, parameters=parameters, strategy="spaa03",
                request_id="replay",
            ),
            timeout=120,
        )
        assert replay.cache is not None and replay.cache["served_from_cache"], (
            "expected the replayed request to be served from the result cache"
        )
        requests.append(
            DesignRequest(
                problem=problem, parameters=parameters, strategy="spaa03",
                request_id="replay",
            )
        )
        results.append(replay)
        for request, result in zip(requests, results):
            direct = run_request(request)
            assert payload(result) == payload(direct), (
                f"served result for {request.request_id!r} diverges from "
                "direct run_request"
            )
            checks.append(f"{request.request_id}: bit-identical to direct run")

        # HTTP leg: the replay request over the front, a hit it writes from
        # the stored document.  The body must be the direct payload's bytes.
        post = urllib.request.Request(
            server.url + "/design",
            data=json.dumps(request_to_dict(requests[-1])).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(post, timeout=120) as response:
            body = json.loads(response.read())
        assert body["cache"]["served_from_cache"], "expected the HTTP replay to be a cache hit"
        direct = result_to_dict(run_request(requests[-1]))
        for document in (body, direct):
            for key in ("stage_seconds", "cache", "request_id"):
                document.pop(key, None)
        assert json.dumps(body, sort_keys=True) == json.dumps(direct, sort_keys=True), (
            "the HTTP body of the replayed request diverges from direct run_request"
        )
        checks.append("replay over HTTP: body bit-identical to direct run")

        # Churn leg: one session event vs a standalone incremental call.
        session = DesignSession(
            problem,
            strategy="sharded:spaa03",
            parameters=parameters,
            cache=service.cache,
            session_id="self-test",
        )
        standing = session.ensure_design()
        event, delta, new_problem = next(
            churn_stream(
                problem,
                ["sink-churn"],
                seed=7,
                churn_config=SinkChurnConfig(fraction=0.2),
            )
        )
        served = session.apply_delta(delta)
        direct = design_incremental(
            standing, new_problem, session.parameters, strategy="spaa03",
            previous_problem=problem, delta=delta,
        )
        assert solution_digest(served.solution) == solution_digest(
            direct.solution
        ), "session churn event diverges from standalone design_incremental"
        checks.append(f"session {event} event: bit-identical to design_incremental")

        stats = service.stats()
        cache_stats = stats["cache"]
        assert cache_stats["hits"] > 0 and cache_stats["hit_rate"] > 0, (
            f"expected a positive cache hit rate (stats: {cache_stats})"
        )
        assert stats["deduplicated"] >= 1, (
            "expected the repeat-digest request to join the in-flight line "
            f"(stats: {stats})"
        )
        checks.append(
            f"cache hits={cache_stats['hits']} dedup={stats['deduplicated']} "
            f"hit_rate={cache_stats['hit_rate']:.2f}"
        )

    report = {
        "ok": True,
        "checks": checks,
        "stats": {
            key: value
            for key, value in stats.items()
            if key not in ("cache",)
        },
        "cache": cache_stats,
    }
    if verbose:
        for line in checks:
            print(f"self-test: {line}")
        print("self-test: OK")
    return report


__all__ = [
    "DesignServer",
    "DesignService",
    "DesignTicket",
    "ServiceOverloadedError",
    "run_self_test",
]
