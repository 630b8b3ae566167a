"""serve-mix: an open loop of versioned request documents into DesignService.

Arrivals follow a seeded schedule at a fixed mean rate (one request per
slot of ``1 / RATE_PER_S`` seconds, at a uniform offset within it), so the
offered load does not depend on how fast the program answers.  Each request is the
``request_to_dict`` JSON body of a ``sharded:spaa03`` design of an
``internet_scale`` instance.  Exactly a fifth carry a digest never seen
before (a design plus a result write); the rest repeat an earlier digest,
chosen Zipf-like by first appearance (a cache read, or a join of the
in-flight computation).  Latency runs from when a request was due, so a
stall also delays the requests queued behind it.

The traced run plays the same schedule twice on fresh services: untraced,
then with spans around the calls the service makes --
``request_from_dict`` -> ``request_digest`` -> ``run_request_cached`` --
patched where the service looks them up.  Every traced payload must equal
the untraced one.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import repro.serve.service as service_module
from pbcore import (
    CALIBRATION_S,
    Outcome,
    RunContext,
    Tracer,
    median,
    patched_all,
    percentile,
    put_times,
    timed_setup,
    unit_seconds,
)
from repro.api import DesignRequest, request_to_dict, result_to_dict
from repro.core.algorithm import DesignParameters
from repro.serve.service import DesignService, ServiceOverloadedError
from repro.workloads.internet_scale import InternetScaleConfig, generate_internet_scale_problem

NUM_SINKS = 150
RATE_PER_S = 4.0
FRESH_FRACTION = 0.2
ZIPF_EXPONENT = 1.1
WORKERS = 2
MAX_QUEUE = 32
RESULT_TIMEOUT_S = 150.0
#: Set-up builds every request document this many times.
SETUPS = 3
#: An untraced play runs one calibration unit in each gap between arrivals
#: where no request is in flight at least this long before the next one.
IDLE_GAP_S = 0.08

#: Program-reported stage of a fresh sharded design -> per-layer metric.
SCALE_STAGES = {
    "partition": "scale.partition_s",
    "design_shards": "scale.design_shards_s",
    "stitch": "scale.stitch_s",
}


def _schedule(ctx: RunContext, duration: float) -> list[tuple[float, int]]:
    """``(offset seconds, document index)`` per request, in arrival order.

    Request ``i`` arrives at a seeded uniform offset within its own slot
    ``[i, i + 1) / RATE_PER_S``: the mean rate of a Poisson process without
    its bursts, which made the latency percentiles of one short run depend
    more on the seed than on the program.  Each block of ``1 / FRESH_FRACTION``
    requests carries exactly one new document, at a seeded position (the
    very first request is always new); the others repeat an earlier one.
    """
    rng = ctx.rng(20)
    count = max(4, round(RATE_PER_S * duration))
    offsets = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / RATE_PER_S
    block = round(1 / FRESH_FRACTION)
    fresh_at = {start + (0 if start == 0 else int(rng.integers(block)))
                for start in range(0, count, block)}
    schedule, fresh = [], 0
    for index, offset in enumerate(offsets):
        if index in fresh_at:
            schedule.append((float(offset), fresh))
            fresh += 1
        else:
            weights = 1.0 / np.arange(1, fresh + 1) ** ZIPF_EXPONENT
            schedule.append((float(offset), int(rng.choice(fresh, p=weights / weights.sum()))))
    return schedule


def _document(ctx: RunContext, index: int) -> dict:
    """One fresh request as the HTTP ``/design`` body carries it."""
    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=NUM_SINKS), rng=ctx.rng(21, index)
    )
    request = DesignRequest(
        problem=problem,
        parameters=DesignParameters(seed=ctx.child_seed(21, index, 1)),
        strategy="sharded:spaa03",
        options={"jobs": 1},
    )
    return json.loads(json.dumps(request_to_dict(request)))


def payload(result) -> str:
    """A result document minus what legitimately differs between deliveries."""
    document = result_to_dict(result)
    for key in ("stage_seconds", "cache", "request_id"):
        document.pop(key, None)
    return json.dumps(document, sort_keys=True)


@dataclass
class Pass:
    """One play of the schedule through a fresh service."""

    results: dict[int, object] = field(default_factory=dict)
    latency: dict[int, float] = field(default_factory=dict)
    units: list[float] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)
    rejected: int = 0
    late: list[float] = field(default_factory=list)
    queue_depth_max: int = 0
    stats: dict = field(default_factory=dict)
    elapsed: float = 0.0


def play(schedule: list[tuple[float, int]], documents: list[dict],
         tracer: Tracer | None = None) -> Pass:
    """Submit every request on time and wait for all results.

    Without a tracer, calibration units run in the generator thread while
    the service is idle (see ``pbcore.HostClock``); their median gauges the
    host's speed over the run.
    """
    played = Pass()
    done_at: dict[int, float] = {}
    due: dict[int, float] = {}
    tickets = {}

    def finished(index: int, _future) -> None:
        done_at[index] = time.perf_counter()

    with DesignService(workers=WORKERS, max_queue=MAX_QUEUE) as service:
        origin = time.perf_counter() + 0.05
        for index, (offset, doc_index) in enumerate(schedule):
            due[index] = origin + offset
            if tracer is None:
                pending = [t.future for i, t in tickets.items() if i not in done_at]
                budget = due[index] - IDLE_GAP_S - time.perf_counter()
                if budget > 0 and not wait(pending, timeout=budget).not_done:
                    if due[index] - time.perf_counter() > IDLE_GAP_S:
                        played.units.append(unit_seconds())
            pause = due[index] - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            start = time.perf_counter()
            played.late.append(start - due[index])
            document = {**documents[doc_index], "request_id": f"req-{index}"}
            try:
                if tracer is None:
                    ticket = service.submit(document)
                else:
                    if start > due[index]:
                        tracer.record("loadgen.late", due[index], start, f"req-{index}")
                    with tracer.span("serve.submit", op=f"req-{index}"):
                        ticket = service.submit(document)
                    played.queue_depth_max = max(
                        played.queue_depth_max, service.stats()["queue_depth"]
                    )
            except ServiceOverloadedError:
                played.rejected += 1
                continue
            tickets[index] = ticket
            ticket.future.add_done_callback(partial(finished, index))
        for index, ticket in tickets.items():
            try:
                played.results[index] = ticket.result(timeout=RESULT_TIMEOUT_S)
            except Exception as error:  # noqa: BLE001 - a failed request is counted
                played.errors[index] = repr(error)
        played.stats = service.stats()
    if tracer is None and not played.units:  # never idle: calibrate once after
        played.units.append(unit_seconds())
    for index in played.results:
        played.latency[index] = done_at[index] - due[index]
    first_due = min(due.values(), default=origin)
    played.elapsed = max(done_at.values(), default=first_due) - first_due
    if tracer is not None:
        for index, ticket in tickets.items():
            _close_op(tracer, f"req-{index}", due[index], done_at.get(index))
    return played


def _close_op(tracer: Tracer, op: str, due: float, done: float | None) -> None:
    """Root a request's spans; a joined request waited on the shared line."""
    if done is None:
        return
    spans = [s for s in tracer.spans if s.op == op and s.parent is None]
    if not any(s.name in ("serve.hit", "serve.miss") for s in spans):
        submitted = max(s.end for s in spans if s.name == "serve.submit")
        tracer.record("serve.dedup_wait", submitted, done, op)
    end = max([done] + [s.end for s in spans])
    tracer.close_op(op, due, end)


def _tracing(tracer: Tracer, misses: list):
    """Patch the service's three calls with span-recording wrappers."""
    digest_end: dict[str, float] = {}

    def parse(original):
        def wrapper(data):
            with tracer.span("serve.parse"):
                return original(data)
        return wrapper

    def digest(original):
        def wrapper(request):
            with tracer.span("serve.digest"):
                value = original(request)
            digest_end[request.request_id] = time.perf_counter()
            return value
        return wrapper

    def execute(original):
        def wrapper(request, cache, **kwargs):
            op = request.request_id
            start = time.perf_counter()
            tracer.record("serve.queue_wait", digest_end.get(op, start), start, op)
            with tracer.span("serve.execute", op=op) as handle:
                result = original(request, cache, **kwargs)
                hit = bool(result.cache and result.cache.get("served_from_cache"))
                handle["name"] = "serve.hit" if hit else "serve.miss"
            if not hit:
                misses.append(result)
            return result
        return wrapper

    return patched_all([
        (service_module, "request_from_dict", parse),
        (service_module, "request_digest", digest),
        (service_module, "run_request_cached", execute),
    ])


def _check_repeats(schedule, played: Pass, outcome: Outcome) -> None:
    """Gate: every repeat-digest payload equals that digest's first payload."""
    first: dict[int, str] = {}
    for index, (_offset, doc_index) in enumerate(schedule):
        if index not in played.results:
            continue
        body = payload(played.results[index])
        expected = first.setdefault(doc_index, body)
        if not outcome.gate(body == expected,
                            f"request {index}: payload differs from its digest's first"):
            outcome.failed += 1


def run(ctx: RunContext) -> Outcome:
    outcome = Outcome()
    duration = ctx.seconds / 2 if ctx.trace else ctx.seconds
    schedule = _schedule(ctx, duration)
    count = 1 + max(doc for _offset, doc in schedule)
    builds, setup = timed_setup(
        SETUPS, lambda _build: [_document(ctx, index) for index in range(count)]
    )
    documents = builds[-1]

    played = play(schedule, documents)
    outcome.attempted = len(schedule)
    outcome.failed = played.rejected + len(played.errors)
    for index, error in played.errors.items():
        outcome.gate(False, f"request {index} failed: {error}")
    outcome.gate(not played.rejected, f"{played.rejected} requests refused (queue full)")
    _check_repeats(schedule, played, outcome)

    # Latencies are too short to bracket with calibration units one by one
    # (the unit's own noise would dominate), so one factor scales the run.
    scale = CALIBRATION_S / median(played.units)
    raw = list(played.latency.values())
    latencies = [latency * scale for latency in raw]
    fresh = {}
    for index, (_offset, doc_index) in enumerate(schedule):
        if index in played.results:
            fresh.setdefault(doc_index, played.results[index])
    ratios = [r.total_cost / r.metadata["shard_bound_sum"] for r in fresh.values()]
    put_times(outcome, setup)
    outcome.put("op_p50_s", median(latencies), len(latencies))
    outcome.put("op_mean_s", float(np.mean(latencies)), len(latencies))
    outcome.note("op_p90_s", percentile(latencies, 90), len(latencies))
    outcome.note("raw.op_p50_s", median(raw), len(raw))
    outcome.note("raw.op_mean_s", float(np.mean(raw)), len(raw))
    outcome.note("host.unit_s_p50", median(played.units), len(played.units))
    outcome.put("work_per_s", len(latencies) / played.elapsed, len(latencies))
    outcome.put("cost_ratio", float(np.mean(ratios)), len(ratios))
    outcome.info["meta"] = {
        "offered_rate_per_s": RATE_PER_S,
        "loadgen_late_s_max": max(played.late),
        "rejected": played.rejected,
    }

    if ctx.trace:
        tracer = Tracer()
        misses: list = []
        with _tracing(tracer, misses):
            traced = play(schedule, documents, tracer)
        for index, result in played.results.items():
            outcome.replay(
                index in traced.results and payload(traced.results[index]) == payload(result),
                f"request {index}: traced payload differs from the untraced one",
            )
        _layers(tracer, traced, misses, outcome)
        outcome.put(
            "trace.overhead_frac",
            np.mean(list(traced.latency.values())) / np.mean(raw) - 1,
            len(traced.latency),
        )
        outcome.info["tracer"] = tracer
    return outcome


def _layers(tracer: Tracer, traced: Pass, misses: list, outcome: Outcome) -> None:
    def durations(name: str) -> list[float]:
        return [s.seconds for s in tracer.spans if s.name == name]

    for name, metric, q in (
        ("serve.submit", "serve.submit_s_p50", 50),
        ("serve.queue_wait", "serve.queue_wait_s_p90", 90),
        ("serve.parse", "serve.parse_s_p50", 50),
        ("serve.digest", "serve.digest_s_p50", 50),
        ("serve.hit", "serve.hit_s_p50", 50),
        ("serve.miss", "serve.miss_s_p50", 50),
    ):
        values = durations(name)
        if values:
            outcome.put(metric, percentile(values, q), len(values))
    outcome.put("serve.queue_depth_max", traced.queue_depth_max, len(traced.late))
    outcome.put("serve.rejected", traced.rejected, len(traced.late))
    outcome.put("serve.dedup_joins", traced.stats["deduplicated"], len(traced.late))
    outcome.put("loadgen.late_s_max", max(traced.late), len(traced.late))
    lookups = traced.stats["cache"]["by_namespace"].get("result", {})
    hits, misses_count = lookups.get("hits", 0), lookups.get("misses", 0)
    outcome.put("serve.hit_ratio", hits / max(hits + misses_count, 1), hits + misses_count)
    for stage, metric in SCALE_STAGES.items():
        values = [r.stage_seconds[stage] for r in misses if stage in r.stage_seconds]
        if values:
            outcome.put(metric, median(values), len(values))
    shards = [r.metadata["num_shards"] for r in misses if "num_shards" in r.metadata]
    if shards:
        outcome.put("scale.shards", median(shards), len(shards))
    coverage = tracer.coverage()
    outcome.put("trace.coverage_min", min(coverage), len(coverage))
