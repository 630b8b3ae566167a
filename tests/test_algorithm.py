"""End-to-end tests of the design pipeline (repro.core.algorithm + repro.api)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import DesignPipeline, DesignRequest, run_request
from repro.core.algorithm import (
    DesignParameters,
    fractional_lower_bound,
    repair_weight_shortfalls,
)
from repro.core.problem import OverlayDesignProblem
from repro.core.rounding import RoundingParameters
from repro.core.solution import OverlaySolution
from repro.workloads.random_instances import RandomInstanceConfig, random_problem


def design(problem, parameters=None, rng=None):
    """The ``PipelineContext`` of one run of the paper pipeline."""
    return DesignPipeline.standard().run(problem, parameters, rng)


def cost_ratio(context):
    """Final cost over the run's LP lower bound."""
    return context.solution.total_cost() / context.lp_lower_bound


class TestPipeline:
    def test_produces_complete_report(self, tiny_problem):
        result = run_request(DesignRequest(tiny_problem, DesignParameters(seed=0)))
        report = result.report
        assert report.solution.assignments
        assert report.lp_lower_bound > 0
        # Note: the cost ratio may be below 1 because the algorithm's output is
        # allowed to under-serve weights by a constant factor (Section 5); the
        # LP bound only lower-bounds *fully feasible* designs.
        assert result.cost_ratio > 0
        assert set(report.stage_seconds) >= {"formulate", "solve_lp", "rounding", "gap"}
        assert report.formulation.num_variables > 0
        summary = result.summary()
        assert "cost_ratio" in summary and "lp_variables" in summary

    def test_solution_supports_assignments(self, tiny_problem):
        report = design(tiny_problem, DesignParameters(seed=0))
        solution = report.solution
        for (sink, stream), reflectors in solution.assignments.items():
            for reflector in reflectors:
                assert reflector in solution.built_reflectors
                assert (stream, reflector) in solution.stream_deliveries

    def test_fully_feasible_solution_costs_at_least_lp_bound(self, small_random_problem):
        """The LP optimum lower-bounds any design that fully meets every demand
        within the original fanout bounds (here: the greedy baseline)."""
        report = design(small_random_problem, DesignParameters(seed=1))
        feasible = run_request(
            DesignRequest(problem=small_random_problem, strategy="greedy")
        ).solution
        if all(
            feasible.weight_satisfaction(d) >= 1.0 - 1e-9
            for d in small_random_problem.demands
        ):
            assert feasible.total_cost() >= report.lp_lower_bound - 1e-6

    def test_reproducible_with_seed(self, small_random_problem):
        a = design(small_random_problem, DesignParameters(seed=9))
        b = design(small_random_problem, DesignParameters(seed=9))
        assert a.solution.assignments == b.solution.assignments
        assert a.solution.total_cost() == pytest.approx(b.solution.total_cost())

    def test_explicit_rng_used(self, small_random_problem):
        rng = np.random.default_rng(5)
        a = design(small_random_problem, DesignParameters(), rng=rng)
        rng = np.random.default_rng(5)
        b = design(small_random_problem, DesignParameters(), rng=rng)
        assert a.solution.assignments == b.solution.assignments

    def test_paper_constants_meet_section5_guarantees(self, small_random_problem):
        params = DesignParameters(rounding=RoundingParameters.paper_defaults(), seed=3)
        report = design(small_random_problem, params)
        for demand in small_random_problem.demands:
            assert report.solution.weight_satisfaction(demand) >= 0.25 - 1e-9
        assert report.solution.max_fanout_factor() <= 4.0 + 1e-9
        assert cost_ratio(report) <= 2.0 * report.rounded.multiplier + 1e-9

    def test_no_retry_single_attempt(self, tiny_problem):
        params = DesignParameters(retry_rounding=False, seed=2)
        report = design(tiny_problem, params)
        assert report.rounding_attempts == 1

    def test_infeasible_problem_raises(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("r", cost=1.0, fanout=1)
        problem.add_sink("d")
        problem.add_stream_edge("s", "r", 0.5, 1.0)
        problem.add_delivery_edge("r", "d", 0.5, 1.0)
        problem.add_demand("d", "s", success_threshold=0.99999)
        with pytest.raises(ValueError):
            design(problem)

    def test_structurally_invalid_problem_raises(self):
        with pytest.raises(ValueError):
            design(OverlayDesignProblem())

    def test_seed_parameter_propagates_to_rounding(self):
        params = DesignParameters(seed=77)
        assert params.rounding.seed == 77


class TestRepair:
    def test_repair_tops_up_shortfalls(self, small_random_problem):
        params = DesignParameters(seed=4, repair_shortfall=True)
        repaired_report = design(small_random_problem, params)
        plain_report = design(
            small_random_problem, DesignParameters(seed=4, repair_shortfall=False)
        )
        repaired_min = min(
            repaired_report.solution.weight_satisfaction(d)
            for d in small_random_problem.demands
        )
        plain_min = min(
            plain_report.solution.weight_satisfaction(d) for d in small_random_problem.demands
        )
        assert repaired_min >= plain_min - 1e-9
        assert repaired_report.solution.metadata.get("repaired", False) or repaired_min >= 1.0 - 1e-9

    def test_repair_respects_fanout_slack(self, small_random_problem):
        report = design(
            small_random_problem,
            DesignParameters(seed=4, repair_shortfall=True, repair_fanout_slack=4.0),
        )
        assert report.solution.max_fanout_factor() <= 4.0 + 1e-9

    def test_repair_function_directly(self, tiny_problem):
        poor = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r3"]})
        repaired = repair_weight_shortfalls(tiny_problem, poor, fanout_slack=1.0)
        for demand in tiny_problem.demands:
            if repaired.reflectors_serving(demand):
                assert repaired.weight_satisfaction(demand) >= poor.weight_satisfaction(demand)
        assert repaired.metadata.get("repaired") is True

    def test_repair_noop_when_already_satisfied(self, tiny_problem):
        full = OverlaySolution.from_assignments(
            tiny_problem, {d.key: tiny_problem.candidate_reflectors(d) for d in tiny_problem.demands}
        )
        repaired = repair_weight_shortfalls(tiny_problem, full)
        assert repaired.assignments == full.assignments


class TestLowerBoundHelper:
    def test_lower_bound_matches_report(self, tiny_problem):
        bound = fractional_lower_bound(tiny_problem)
        report = design(tiny_problem, DesignParameters(seed=0))
        assert bound == pytest.approx(report.lp_lower_bound, rel=1e-6)

    def test_lower_bound_positive(self, small_random_problem):
        assert fractional_lower_bound(small_random_problem) > 0


class TestScalingSanity:
    @pytest.mark.parametrize("num_sinks", [5, 15])
    def test_larger_instances_still_solve(self, num_sinks):
        config = RandomInstanceConfig(num_streams=2, num_reflectors=8, num_sinks=num_sinks)
        problem = random_problem(config, rng=0)
        report = design(problem, DesignParameters(seed=0))
        assert report.solution.assignments
        assert cost_ratio(report) < 50.0
