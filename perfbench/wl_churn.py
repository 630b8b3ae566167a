"""churn-session: a long-lived DesignSession under a seeded churn stream.

One ``DesignSession("sharded:spaa03")`` on an ``internet_scale`` instance
takes deltas that alternate 1% ``sample_sink_churn`` with a 2%
``flash_crowd_delta``; each operation is one ``session.apply_delta``
(closed loop).  Deltas are sampled against the session's current problem
between operations, untimed.  Set-up (instance + session + initial design)
runs several times; every set-up must yield the same initial design.

The traced run applies each event to the session inside an operation span,
with spans around the calls the session makes -- ``apply_delta`` ->
``rebind_partition`` / ``build_partition`` -> ``design_incremental`` ->
``problem_digest`` -- patched where ``repro.serve.session`` looks them up,
and around ``problem_digest`` where the stage cache calls it.  The first
events also go to a second, untraced session set up the same way: both
must reach the same ``solution_digest``, and their times give the tracing
overhead.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

import repro.serve.execute as execute_module
import repro.serve.session as session_module
from pbcore import (
    HostClock,
    Outcome,
    RunContext,
    Tracer,
    median,
    patched_all,
    put_times,
    timed_setup,
    traced_call,
)
from repro.core.algorithm import DesignParameters
from repro.core.serialization import solution_digest
from repro.incremental.churn import SinkChurnConfig, flash_crowd_delta, sample_sink_churn
from repro.serve.session import DesignSession
from repro.workloads.internet_scale import InternetScaleConfig, generate_internet_scale_problem

NUM_SINKS = 1000
SETUPS = 3
#: Events always run; ``cost_ratio`` is read after exactly this many.  In
#: the traced run these are also the events checked against the untraced
#: session.
MIN_EVENTS = 6
OPTIONS = {"jobs": 1}

#: Where the event path looks each layer up -> span name.
TRACED = (
    (session_module, "apply_delta", "incremental.apply_delta"),
    (session_module, "rebind_partition", "scale.rebind"),
    (session_module, "build_partition", "scale.partition"),
    (session_module, "design_incremental", "incremental.design"),
    (session_module, "problem_digest", "digest.problem"),
    (execute_module, "problem_digest", "digest.problem"),
)

#: Span name -> per-layer metric (median self seconds per event).
LAYERS = {
    "incremental.apply_delta": "incremental.apply_delta_s",
    "scale.rebind": "scale.rebind_s",
    "scale.partition": "scale.partition_s",
    "incremental.design": "incremental.design_s",
    "digest.problem": "digest.problem_s",
}

#: Program-reported stage of ``design_incremental`` -> per-layer metric.
REPORTED = {
    "design_shards": "incremental.design_shards_s",
    "stitch": "incremental.stitch_s",
    "audit": "incremental.audit_s",
}


def _session(ctx: RunContext, _index: int) -> DesignSession:
    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=NUM_SINKS), rng=ctx.rng(30)
    )
    session = DesignSession(
        problem,
        strategy="sharded:spaa03",
        parameters=DesignParameters(seed=ctx.child_seed(30, 1)),
        options=OPTIONS,
    )
    session.ensure_design()
    return session


def _delta(ctx: RunContext, problem, index: int):
    rng = ctx.rng(31, index)
    if index % 2 == 0:
        return "sink-churn", sample_sink_churn(problem, SinkChurnConfig(fraction=0.01), rng)
    return "flash-crowd", flash_crowd_delta(problem, rng, hot_fraction=0.02)


def _cost_per_demand(result) -> float:
    return result.total_cost / len(result.solution.problem.demands)


def _check(outcome: Outcome, label: str, result) -> None:
    outcome.attempted += 1
    outcome.failed += not outcome.gate(
        result.audit.unserved_demands == 0,
        f"{label}: {result.audit.unserved_demands} unserved demands",
    )


def run(ctx: RunContext) -> Outcome:
    outcome = Outcome()
    sessions, setup = timed_setup(SETUPS, partial(_session, ctx))
    digests = {solution_digest(s.result.solution) for s in sessions}
    outcome.failed += not outcome.gate(
        len(digests) == 1, f"{len(digests)} different initial designs from one seed"
    )
    # Untraced runs time ``session``; traced runs trace ``session`` and check
    # their first events against ``reference``.
    session, reference = sessions[-1], sessions[0]
    del sessions
    initial_cost = _cost_per_demand(session.result)
    if not ctx.trace:
        reference = session

    tracer = Tracer()
    clock = HostClock()
    times: dict[str, list[float]] = {"sink-churn": [], "flash-crowd": []}
    traced_times: list[float] = []
    traced_results: list = []
    cost_ratio = None
    loop_start = time.perf_counter()
    index = 0
    while index < MIN_EVENTS or time.perf_counter() - loop_start < ctx.seconds:
        kind, delta = _delta(ctx, session.problem, index)
        label = f"event {index} ({kind})"
        if not ctx.trace or index < MIN_EVENTS:
            result = clock.time(lambda: reference.apply_delta(delta))
            times[kind].append(clock.normalized[-1])
            _check(outcome, label, result)
            if index + 1 == MIN_EVENTS:
                cost_ratio = _cost_per_demand(result) / initial_cost
        if ctx.trace:
            start = time.perf_counter()
            with tracer.span("op", op=f"event-{index}"), patched_all(
                (module, name, traced_call(tracer, layer)) for module, name, layer in TRACED
            ):
                traced = session.apply_delta(delta)
            seconds = time.perf_counter() - start
            _check(outcome, f"traced {label}", traced)
            traced_results.append(traced)
            if index < MIN_EVENTS:
                traced_times.append(seconds)
                outcome.replay(
                    solution_digest(traced.solution) == solution_digest(result.solution),
                    f"{label}: traced session digest differs from the untraced one",
                )
        index += 1

    if not ctx.trace:
        put_times(outcome, setup, clock)
        events = clock.normalized
        outcome.put("work_per_s", len(events) / sum(events), len(events))
        outcome.put("cost_ratio", cost_ratio, MIN_EVENTS)
        for kind, values in times.items():
            outcome.note(f"{kind}.event_s_p50", median(values), len(values))
        return outcome

    for layer, metric in LAYERS.items():
        value, count = tracer.layer_median(layer)
        if count:
            outcome.put(metric, value, count)
    for stage, metric in REPORTED.items():
        values = [r.stage_seconds[stage] for r in traced_results if stage in r.stage_seconds]
        if values:
            outcome.put(metric, median(values), len(values))
    fractions = [r.metadata.get("incremental_dirty_fraction", 1.0) for r in traced_results]
    outcome.put("incremental.dirty_shard_frac", median(fractions), len(fractions))
    reused = [r.cache["stages"]["plan"] == "session-reuse" for r in traced_results]
    outcome.put("scale.plan_reuse_frac", float(np.mean(reused)), len(reused))
    coverage = tracer.coverage()
    outcome.put("trace.coverage_min", min(coverage), len(coverage))
    outcome.put("trace.overhead_frac", sum(traced_times) / sum(clock.raw) - 1,
                len(traced_times))
    outcome.info["tracer"] = tracer
    return outcome
