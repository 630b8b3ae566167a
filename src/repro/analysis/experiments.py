"""Parameter sweeps and seed aggregation shared by benchmarks and examples.

Because the paper's guarantees are probabilistic ("with high probability") and
asymptotic ("O(log n)"), validating them requires running the pipeline over
many random instances and seeds and aggregating the measured quantities.
These helpers centralise that loop so the benchmark files stay small and the
numbers in EXPERIMENTS.md are regenerated by exactly one code path.

Sweeps execute through :func:`repro.analysis.runner.execute_tasks`, so passing
``jobs > 1`` fans the per-seed units out over worker processes.  Results are
returned in task order, making a sweep deterministic given its seeds
regardless of ``jobs``.  For parallel runs every callable handed to a sweep
(``make_problem``, ``parameters_factory`` results) must be picklable, i.e.
defined at module level or built with :func:`functools.partial` of a
module-level function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.analysis.audit import audit_solution
from repro.analysis.runner import execute_tasks
from repro.api.pipeline import DesignPipeline
from repro.core.algorithm import DesignParameters, DesignReport
from repro.core.problem import OverlayDesignProblem
from repro.workloads.random_instances import RandomInstanceConfig, random_problem


@dataclass
class SweepResult:
    """Rows produced by a sweep plus convenience aggregation."""

    rows: list[dict] = field(default_factory=list)

    def append(self, row: dict) -> None:
        self.rows.append(row)

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows if name in row], dtype=float)

    def aggregate(self, name: str) -> dict:
        values = self.column(name)
        if values.size == 0:
            return {"metric": name, "count": 0}
        return {
            "metric": name,
            "count": int(values.size),
            "min": float(values.min()),
            "mean": float(values.mean()),
            "max": float(values.max()),
        }


def run_design(
    problem: OverlayDesignProblem,
    parameters: DesignParameters | None = None,
) -> tuple[DesignReport, dict]:
    """Run the pipeline on one instance and extract the standard metric row."""
    start = time.perf_counter()
    report = DesignPipeline.standard().run(problem, parameters).report()
    elapsed = time.perf_counter() - start
    # The pipeline's audit stage already measured the final solution; only
    # fall back to a fresh audit for reports produced without it.
    audit = report.solution_audit
    if audit is None:
        audit = audit_solution(problem, report.solution)
    row = {
        "streams": problem.num_streams,
        "reflectors": problem.num_reflectors,
        "demands": problem.num_demands,
        "lp_variables": report.formulation_size[0],
        "lp_constraints": report.formulation_size[1],
        "lp_lower_bound": report.lp_lower_bound,
        "total_cost": report.solution.total_cost(),
        "cost_ratio": report.cost_ratio,
        "multiplier": report.rounded.multiplier,
        "min_weight_fraction": audit.min_weight_fraction,
        "max_fanout_factor": audit.max_fanout_factor,
        "unserved_demands": audit.unserved_demands,
        "rounding_attempts": report.rounding_attempts,
        "elapsed_seconds": elapsed,
        "lp_nonzeros": report.lp_build_stats.num_nonzeros,
        "formulate_seconds": report.stage_seconds.get("formulate", 0.0),
        "lp_seconds": report.stage_seconds.get("solve_lp", 0.0),
        "rounding_seconds": report.stage_seconds.get("rounding", 0.0),
        "gap_seconds": report.stage_seconds.get("gap", 0.0),
    }
    return report, row


def _sweep_unit(task: dict) -> dict:
    """One sweep unit: build the instance for a seed, run the pipeline.

    Module-level (hence picklable) so :func:`run_seed_sweep` and
    :func:`run_size_sweep` can execute their units in worker processes.
    """
    problem = task["make_problem"](task["seed"])
    _, row = run_design(problem, task["parameters"])
    row["seed"] = task["seed"]
    row.update(task.get("extra", {}))
    return row


def _random_problem_for(config: RandomInstanceConfig, seed: int) -> OverlayDesignProblem:
    return random_problem(config, rng=seed)


def _parameters_for(
    parameters_factory: Callable[[int], DesignParameters] | None, seed: int
) -> DesignParameters:
    if parameters_factory is not None:
        return parameters_factory(seed)
    return DesignParameters(seed=seed)


def run_seed_sweep(
    make_problem: Callable[[int], OverlayDesignProblem],
    seeds: Sequence[int],
    parameters_factory: Callable[[int], DesignParameters] | None = None,
    jobs: int | str | None = 1,
) -> SweepResult:
    """Run the pipeline over several seeds of the same instance family."""
    tasks = [
        {
            "make_problem": make_problem,
            "parameters": _parameters_for(parameters_factory, seed),
            "seed": seed,
        }
        for seed in seeds
    ]
    return SweepResult(rows=list(execute_tasks(_sweep_unit, tasks, jobs=jobs)))


def run_size_sweep(
    sizes: Sequence[tuple[int, int, int]],
    seeds: Sequence[int] = (0,),
    demands_per_sink: int = 1,
    parameters_factory: Callable[[int], DesignParameters] | None = None,
    jobs: int | str | None = 1,
) -> SweepResult:
    """Run the pipeline over a (streams, reflectors, sinks) size sweep.

    Each size is instantiated for every seed with the random-instance
    generator; rows carry the size so scaling plots/series can be derived.
    """
    tasks = []
    for num_streams, num_reflectors, num_sinks in sizes:
        config = RandomInstanceConfig(
            num_streams=num_streams,
            num_reflectors=num_reflectors,
            num_sinks=num_sinks,
            demands_per_sink=demands_per_sink,
        )
        for seed in seeds:
            tasks.append(
                {
                    "make_problem": partial(_random_problem_for, config),
                    "parameters": _parameters_for(parameters_factory, seed),
                    "seed": seed,
                    "extra": {"size_product": num_streams * num_reflectors * num_sinks},
                }
            )
    return SweepResult(rows=list(execute_tasks(_sweep_unit, tasks, jobs=jobs)))
