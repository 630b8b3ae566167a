"""design-mono: the paper's pipeline, one design at a time (closed loop).

One client designs a fresh ``as_geo`` instance per operation through
``repro.api.run_request(strategy="spaa03")``: LP -> rounding -> GAP ->
repair -> audit, with no cache or sharding in the way.

The traced run designs each instance once through
``DesignPipeline.standard()`` -- the pipeline ``run_request`` runs for
``spaa03`` -- with a hook that records one span per stage.  Layer times are
the stage times the pipeline reports (``stage_seconds``); the spans show how
much of each operation they account for.  The first designs also run
untraced through ``run_request``: both must have the same
``solution_digest``, and their times give the tracing overhead.  A size
ladder then fits a log-log scaling exponent per design layer.
"""

from __future__ import annotations

import time

import numpy as np

from pbcore import HostClock, Outcome, RunContext, Tracer, loglog_exponent, median, put_times
from repro.api import DesignRequest, run_request
from repro.api.pipeline import DesignPipeline, PipelineContext
from repro.core.algorithm import DesignParameters
from repro.core.serialization import solution_digest
from repro.workloads.as_geo import AsGeoConfig, generate_as_geo_problem

#: Sinks per instance of the timed loop, and the ladder sizes.
NUM_SINKS = 300
LADDER = (150, 300, 600)

#: Designs always run, whatever ``--seconds`` says; ``cost_ratio`` is the
#: mean over exactly these, so it is a pure function of the seed.  In the
#: traced run these are also the designs checked against ``run_request``.
MIN_DESIGNS = 3

#: Program-reported stage (``stage_seconds`` key) -> per-layer metric.
STAGE_LAYERS = {
    "formulate": "lp.formulate_s",
    "solve_lp": "lp.solve_s",
    "rounding": "rounding.s",
    "gap": "gap.s",
    "repair": "repair.s",
    "audit": "audit.s",
}

#: Stages given a fitted scaling exponent by the size ladder.
LADDER_LAYERS = {
    "formulate": "lp.formulate_exp",
    "solve_lp": "lp.solve_exp",
    "rounding": "rounding.exp",
    "gap": "gap.exp",
}


def _request(ctx: RunContext, index: int, num_sinks: int, tag: int = 0) -> DesignRequest:
    problem, _registry = generate_as_geo_problem(
        AsGeoConfig(num_sinks=num_sinks), rng=ctx.rng(tag, index)
    )
    parameters = DesignParameters(seed=ctx.child_seed(tag, index, 1), repair_shortfall=True)
    return DesignRequest(problem=problem, parameters=parameters, strategy="spaa03")


def traced_design(request: DesignRequest, tracer: Tracer, op: str) -> PipelineContext:
    """Run the ``spaa03`` pipeline with one span per stage."""
    start = last = time.perf_counter()

    def hook(stage: str, _context: PipelineContext) -> None:
        nonlocal last
        now = time.perf_counter()
        tracer.record(stage, last, now, op)
        last = now

    context = DesignPipeline.standard(hooks=[hook]).run(request.problem, request.parameters)
    tracer.close_op(op, start, time.perf_counter())
    return context


def _counters(context: PipelineContext) -> dict[str, float]:
    rounded, gap = context.rounded, context.gap
    scaled = [v for v in (*rounded.scaled_z.values(), *rounded.scaled_y.values()) if v > 0]
    return {
        "lp.rows": context.formulation.num_constraints,
        "lp.cols": context.formulation.num_variables,
        "rounding.attempts": context.rounding_attempts,
        "rounding.saturated_frac": (
            sum(1 for v in scaled if v >= 1.0) / len(scaled) if scaled else 0.0
        ),
        "gap.boxes": gap.boxes_total,
        "gap.served_frac": gap.boxes_served / gap.boxes_total if gap.boxes_total else 1.0,
    }


def _check(outcome: Outcome, label: str, unserved: int, cost: float, bound) -> None:
    """Gates of one design: every demand served, cost at least the LP bound."""
    outcome.attempted += 1
    ok = outcome.gate(unserved == 0, f"{label}: {unserved} unserved demands")
    ok &= outcome.gate(bound is not None and cost >= bound * (1 - 1e-9),
                       f"{label}: cost {cost} below LP bound {bound}")
    outcome.failed += not ok


def run(ctx: RunContext) -> Outcome:
    outcome = Outcome()

    requests: list[DesignRequest] = []
    setup = HostClock()

    def request(index: int) -> DesignRequest:
        # Instances are generated ahead of the loop; a fast program that
        # outruns them gets more, generated between (untimed) operations.
        while len(requests) <= index:
            requests.append(setup.time(lambda: _request(ctx, len(requests), NUM_SINKS)))
        return requests[index]

    request(MIN_DESIGNS + 2)

    tracer = Tracer()
    clock = HostClock()
    traced_times: list[float] = []
    ratios: list[float] = []
    contexts: list[PipelineContext] = []
    demands = 0
    loop_start = time.perf_counter()
    index = 0
    while index < MIN_DESIGNS or time.perf_counter() - loop_start < ctx.seconds:
        req = request(index)
        if not ctx.trace or index < MIN_DESIGNS:
            result = clock.time(lambda: run_request(req))
            demands += req.problem.num_demands
            _check(outcome, f"design {index}", result.audit.unserved_demands,
                   result.total_cost, result.lower_bound)
            if index < MIN_DESIGNS:
                ratios.append(result.cost_ratio)
        if ctx.trace:
            start = time.perf_counter()
            context = traced_design(req, tracer, op=f"design-{index}")
            seconds = time.perf_counter() - start
            _check(outcome, f"traced design {index}", context.solution_audit.unserved_demands,
                   context.solution.total_cost(), context.lp_lower_bound)
            contexts.append(context)
            if index < MIN_DESIGNS:
                traced_times.append(seconds)
                outcome.replay(
                    solution_digest(context.solution) == solution_digest(result.solution),
                    f"design {index}: traced design digest differs from run_request's",
                )
        index += 1

    if not ctx.trace:
        put_times(outcome, setup, clock)
        outcome.put("work_per_s", demands / sum(clock.normalized), len(clock.normalized))
        outcome.put("cost_ratio", float(np.mean(ratios)), len(ratios))
        return outcome

    for stage, metric in STAGE_LAYERS.items():
        outcome.put(metric, median([c.stage_seconds[stage] for c in contexts]), len(contexts))
    counters = [_counters(c) for c in contexts]
    for name in counters[0]:
        outcome.put(name, median([c[name] for c in counters]), len(counters))
    coverage = tracer.coverage()
    outcome.put("trace.coverage_min", min(coverage), len(coverage))
    outcome.put("trace.overhead_frac", sum(traced_times) / sum(clock.raw) - 1,
                len(traced_times))
    _ladder(ctx, outcome)
    outcome.info["tracer"] = tracer
    return outcome


def _ladder(ctx: RunContext, outcome: Outcome) -> None:
    """Design one instance per size and fit each stage's log-log exponent."""
    seconds = []
    for size in LADDER:
        req = _request(ctx, 0, size, tag=1)
        seconds.append(DesignPipeline.standard().run(req.problem, req.parameters).stage_seconds)
    for stage, metric in LADDER_LAYERS.items():
        outcome.put(metric, loglog_exponent(list(LADDER), [s[stage] for s in seconds]),
                    len(LADDER))
