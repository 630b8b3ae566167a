"""audit-sweep: failure-catalogue reliability sweeps of one standing design.

Set-up builds ``sharded:spaa03`` designs of three ``internet_scale``
instances (building the first twice must give the same design).  The
instances and designs are the same in every run -- this workload measures
the reliability engines, and instance variety would only widen its spread
(design-mono and serve-mix vary the instances) -- so the workload seed
drives the sweeps: their failure draws and Monte-Carlo streams.  Each
operation sweeps the full failure catalogue over each of the three designs
with a fresh seed and one engine, alternating ``evaluate_design`` (batched
engine) with ``evaluate_design_streaming`` (streaming engine with the
``diurnal`` trace), closed loop.  Both engines run so that merging them
cannot hide a slowdown of either; every operation covers all three designs
so that one instance's path table does not set the run's figures, and so
that one engine's operations are alike.

Gates: every metric finite, every loss or fraction metric in [0, 1], and a
re-run of the first sweep's seed identical bit for bit.  The traced run
makes the same sweeps with spans around the calls they make per scenario --
``realize_scenario`` -> ``compile_path_table`` -> ``run_monte_carlo`` /
``run_streaming_monte_carlo`` -- patched where the sweeps and engines look
them up.  The first sweep of each engine also runs untraced: the metrics
must be equal, and the times give the tracing overhead.
"""

from __future__ import annotations

import math
import time
from functools import partial

import numpy as np

import repro.simulation.montecarlo as montecarlo_module
import repro.simulation.scenarios as scenarios_module
import repro.simulation.streaming as streaming_module
from pbcore import HostClock, Outcome, RunContext, Tracer, median, patched_all, put_times, timed_setup
from repro.api import DesignRequest, run_request
from repro.core.algorithm import DesignParameters
from repro.core.serialization import solution_digest
from repro.network.loss import GilbertElliottLossModel
from repro.simulation import evaluate_design, evaluate_design_streaming
from repro.simulation.montecarlo import estimate_trial_bytes
from repro.workloads.internet_scale import InternetScaleConfig, generate_internet_scale_problem

NUM_SINKS = 200
SETUPS = 3
TRIALS = 10
NUM_PACKETS = 2000
WINDOW = 200
TRACES = ("diurnal",)
ENGINES = ("batched", "streaming")


def _design(index: int):
    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=NUM_SINKS), rng=np.random.default_rng([40, index])
    )
    return run_request(
        DesignRequest(
            problem=problem,
            parameters=DesignParameters(seed=index + 1),
            strategy="sharded:spaa03",
            options={"jobs": 1},
        )
    )


def sweep(problem, solution, engine: str, seed: int) -> dict:
    """One catalogue sweep through the engine's public entry point."""
    if engine == "batched":
        return evaluate_design(problem, solution, "all", trials=TRIALS,
                               num_packets=NUM_PACKETS, window=WINDOW, seed=seed)
    return evaluate_design_streaming(problem, solution, "all", trials=TRIALS,
                                     num_packets=NUM_PACKETS, window=WINDOW, seed=seed,
                                     traces=TRACES, jobs=1)


class Probe:
    """Span-recording stand-ins for the per-scenario calls, with counters.

    Each ``make_*`` is a wrapper factory for :func:`pbcore.patched`.
    ``take`` returns the counters of the calls since the last ``take``.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.loss_model = None
        self.take()

    def take(self) -> dict:
        counts = getattr(self, "counts", None)
        self.counts = {"failure_events": 0, "tiles": 0, "trial_bytes": 0.0,
                       "ge_s": 0.0, "kernel_s": 0.0}
        return counts

    def targets(self) -> list:
        return [
            (scenarios_module, "realize_scenario", self.make_realize),
            (scenarios_module, "run_monte_carlo", partial(self.make_kernel, "sim.kernel_batched")),
            (streaming_module, "run_streaming_monte_carlo",
             partial(self.make_kernel, "sim.kernel_stream")),
            (montecarlo_module, "compile_path_table", self.make_compile),
            (streaming_module, "compile_path_table", self.make_compile),
        ]

    def make_realize(self, original):
        def wrapper(*args, **kwargs):
            with self.tracer.span("sim.realize"):
                realization = original(*args, **kwargs)
            self.loss_model = realization.loss_model
            self.counts["failure_events"] += len(realization.failures)
            return realization
        return wrapper

    def make_compile(self, original):
        def wrapper(*args, **kwargs):
            with self.tracer.span("sim.compile"):
                table = original(*args, **kwargs)
            self.counts["trial_bytes"] = max(
                self.counts["trial_bytes"],
                estimate_trial_bytes(table, self.loss_model, NUM_PACKETS),
            )
            return table
        return wrapper

    def make_kernel(self, layer: str, original):
        def wrapper(problem, solution, config, *args, **kwargs):
            start = time.perf_counter()
            with self.tracer.span(layer):
                report = original(problem, solution, config, *args, **kwargs)
            seconds = time.perf_counter() - start
            self.counts["kernel_s"] += seconds
            if isinstance(config.loss_model, GilbertElliottLossModel):
                self.counts["ge_s"] += seconds
            plan = getattr(report, "plan", None)
            if plan is not None:
                self.counts["tiles"] += plan.num_tiles
            return report
        return wrapper


def _valid(metrics: dict) -> list[str]:
    """Problems of one sweep: non-finite values, fractions out of [0, 1]."""
    problems = []
    for scenario, row in metrics.items():
        for name, value in row.items():
            if not math.isfinite(value):
                problems.append(f"{scenario}:{name}={value}")
            elif ("loss" in name or "fraction" in name) and not 0.0 <= value <= 1.0:
                problems.append(f"{scenario}:{name}={value} outside [0, 1]")
    return problems


def _check(outcome: Outcome, label: str, sweeps: list[dict]) -> None:
    outcome.attempted += 1
    problems = [problem for metrics in sweeps for problem in _valid(metrics)]
    outcome.failed += not outcome.gate(not problems, f"{label}: {problems[:3]}")


def run(ctx: RunContext) -> Outcome:
    outcome = Outcome()
    designs, setup = timed_setup(SETUPS, _design)
    outcome.failed += not outcome.gate(
        solution_digest(_design(0).solution) == solution_digest(designs[0].solution),
        "building design 0 twice gave different designs",
    )

    tracer = Tracer()
    probe = Probe(tracer)
    clock = HostClock()
    times: dict[str, list[float]] = {engine: [] for engine in ENGINES}
    work: dict[str, float] = {engine: 0.0 for engine in ENGINES}
    traced_times: list[float] = []
    counters: list[dict] = []
    first = None
    loop_start = time.perf_counter()
    index = 0
    while index < len(ENGINES) or time.perf_counter() - loop_start < ctx.seconds:
        engine = ENGINES[index % len(ENGINES)]
        seed = ctx.child_seed(41, index)

        def sweeps() -> list[dict]:
            return [sweep(d.solution.problem, d.solution, engine, seed) for d in designs]

        if not ctx.trace or index < len(ENGINES):
            # Each sweep is timed on its own: host-normalizing tracks the
            # host's speed better over 1-2 s than over a whole operation.
            metrics = [clock.time(partial(sweep, d.solution.problem, d.solution, engine, seed))
                       for d in designs]
            times[engine].append(sum(clock.normalized[-len(designs):]))
            work[engine] += sum(len(m) * TRIALS * len(d.solution.problem.demands)
                                for m, d in zip(metrics, designs))
            _check(outcome, f"operation {index}", metrics)
            if first is None:
                first = (engine, seed, metrics[0])
        if ctx.trace:
            start = time.perf_counter()
            with tracer.span("op", op=f"sweeps-{index}"), patched_all(probe.targets()):
                traced = sweeps()
            seconds = time.perf_counter() - start
            _check(outcome, f"traced operation {index}", traced)
            counters.append(probe.take())
            if index < len(ENGINES):
                traced_times.append(seconds)
                outcome.replay(traced == metrics,
                               f"operation {index} ({engine}): traced sweep metrics differ")
        index += 1

    engine, seed, metrics = first
    solution = designs[0].solution
    outcome.failed += not outcome.gate(
        sweep(solution.problem, solution, engine, seed) == metrics,
        f"re-running sweep 0 ({engine}, seed {seed}) changed its metrics",
    )

    if not ctx.trace:
        # Engines differ in cost, so a median over their mixed operations
        # would fall between two clusters: op times are per-engine figures
        # summed, the seconds of one operation with each engine.
        put_times(outcome, setup)
        sweeps = clock.normalized
        outcome.put("op_p50_s", sum(median(times[e]) for e in ENGINES), len(sweeps))
        outcome.put("op_mean_s", sum(float(np.mean(times[e])) for e in ENGINES), len(sweeps))
        outcome.note("host.unit_s_p50", median(clock.units), len(clock.units))
        outcome.put("work_per_s", sum(work.values()) / sum(sweeps), len(sweeps))
        ratios = [d.total_cost / d.metadata["shard_bound_sum"] for d in designs]
        outcome.put("cost_ratio", float(np.mean(ratios)), len(ratios))
        for engine in ENGINES:
            outcome.note(f"{engine}.demand_trials_per_s", work[engine] / sum(times[engine]),
                         len(times[engine]))
        return outcome

    for layer in ("sim.realize", "sim.compile", "sim.kernel_batched", "sim.kernel_stream"):
        value, count = tracer.layer_median(layer)
        if count:
            outcome.put(layer + "_s", value, count)
    outcome.put("sim.failure_events", median([c["failure_events"] for c in counters]),
                len(counters))
    streaming = [c["tiles"] for c in counters if c["tiles"]]
    if streaming:
        outcome.put("sim.tiles", median(streaming), len(streaming))
    outcome.put("sim.trial_bytes", max(c["trial_bytes"] for c in counters), len(counters))
    outcome.put("sim.kernel_ge_share",
                sum(c["ge_s"] for c in counters) / sum(c["kernel_s"] for c in counters),
                len(counters))
    coverage = tracer.coverage()
    outcome.put("trace.coverage_min", min(coverage), len(coverage))
    outcome.put("trace.overhead_frac", sum(traced_times) / sum(clock.raw) - 1,
                len(traced_times))
    outcome.info["tracer"] = tracer
    return outcome
