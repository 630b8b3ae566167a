"""Tests for the brute-force exact search (``tests/exact_oracle.py``).

The search is the differential oracle of the ``milp-exact`` designer
(``tests/test_milp_exact.py``), so its own optimality claims are pinned here.
"""

from __future__ import annotations

import pytest
from exact_oracle import SearchSpaceTooLarge, _feasible_subsets, exact_design

from repro.api import DesignPipeline, DesignRequest, run_request
from repro.core.algorithm import DesignParameters, fractional_lower_bound
from repro.core.problem import OverlayDesignProblem
from repro.workloads import RandomInstanceConfig, random_problem


def greedy_solution(problem: OverlayDesignProblem):
    return run_request(DesignRequest(problem=problem, strategy="greedy")).solution


def tiny_instance(seed: int) -> OverlayDesignProblem:
    return random_problem(
        RandomInstanceConfig(
            num_streams=1,
            num_reflectors=4,
            num_sinks=3,
            demands_per_sink=1,
            min_candidates_per_demand=3,
        ),
        rng=seed,
    )


class TestExactDesign:
    def test_exact_is_feasible(self, tiny_problem):
        result = exact_design(tiny_problem)
        for demand in tiny_problem.demands:
            assert result.solution.weight_satisfaction(demand) >= 1.0 - 1e-9
        assert result.solution.max_fanout_factor() <= 1.0 + 1e-9
        assert result.nodes_explored > 0

    def test_exact_cost_between_lp_bound_and_heuristics(self, tiny_problem):
        result = exact_design(tiny_problem)
        assert result.optimal_cost >= fractional_lower_bound(tiny_problem) - 1e-6
        assert result.optimal_cost <= greedy_solution(tiny_problem).total_cost() + 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_lower_bounds_all_feasible_designs(self, seed):
        problem = tiny_instance(seed)
        result = exact_design(problem)
        greedy = greedy_solution(problem)
        if all(greedy.weight_satisfaction(d) >= 1.0 - 1e-9 for d in problem.demands):
            assert result.optimal_cost <= greedy.total_cost() + 1e-6
        assert result.optimal_cost >= fractional_lower_bound(problem) - 1e-6

    def test_algorithm_approximation_factor_vs_true_optimum(self):
        """The paper's guarantee measured against OPT, not just the LP bound."""
        problem = tiny_instance(1)
        exact = exact_design(problem)
        context = DesignPipeline.standard().run(
            problem, DesignParameters(seed=0, repair_shortfall=True)
        )
        ratio = context.solution.total_cost() / exact.optimal_cost
        assert ratio <= 2.0 * context.rounded.multiplier + 1e-9

    def test_respects_known_optimum_on_handcrafted_instance(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("good", cost=5.0, fanout=2)
        problem.add_reflector("decoy", cost=1.0, fanout=2)
        problem.add_sink("d")
        problem.add_stream_edge("s", "good", 0.01, 0.5)
        problem.add_stream_edge("s", "decoy", 0.30, 0.1)
        problem.add_delivery_edge("good", "d", 0.01, 0.5)
        problem.add_delivery_edge("decoy", "d", 0.30, 0.1)
        # 0.95 needs weight ~3.0; the decoy path (failure ~0.51) gives only ~0.67,
        # so the only feasible single-reflector choice is 'good'.
        problem.add_demand("d", "s", success_threshold=0.95)
        result = exact_design(problem)
        assert result.solution.built_reflectors == {"good"}
        assert result.optimal_cost == pytest.approx(5.0 + 0.5 + 0.5)

    def test_infeasible_demand_raises(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("r", cost=1.0, fanout=1)
        problem.add_sink("d")
        problem.add_stream_edge("s", "r", 0.4, 0.1)
        problem.add_delivery_edge("r", "d", 0.4, 0.1)
        problem.add_demand("d", "s", success_threshold=0.999)
        with pytest.raises(ValueError):
            exact_design(problem)

    def test_fanout_conflict_detected(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("r", cost=1.0, fanout=1)
        problem.add_sink("d1")
        problem.add_sink("d2")
        problem.add_stream_edge("s", "r", 0.01, 0.1)
        problem.add_delivery_edge("r", "d1", 0.02, 0.1)
        problem.add_delivery_edge("r", "d2", 0.02, 0.1)
        problem.add_demand("d1", "s", 0.9)
        problem.add_demand("d2", "s", 0.9)
        with pytest.raises(ValueError):
            exact_design(problem)

    def test_search_space_guard(self):
        problem = random_problem(
            RandomInstanceConfig(num_streams=2, num_reflectors=10, num_sinks=12), rng=0
        )
        with pytest.raises(SearchSpaceTooLarge):
            exact_design(problem, max_subset_size=4, max_search_nodes=100)


class TestCandidateDedup:
    """Regression: duplicate candidate entries must not inflate the search."""

    def _two_reflector_problem(self) -> OverlayDesignProblem:
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        for name in ("r1", "r2"):
            problem.add_reflector(name, cost=2.0, fanout=2)
            problem.add_stream_edge("s", name, 0.02, 0.5)
        problem.add_sink("d")
        for name in ("r1", "r2"):
            problem.add_delivery_edge(name, "d", 0.02, 0.5)
        problem.add_demand("d", "s", success_threshold=0.9)
        return problem

    def test_feasible_subsets_unique_despite_duplicate_candidates(self):
        clean = self._two_reflector_problem()
        dirty = self._two_reflector_problem()
        # The public API rejects duplicate delivery edges, so corrupt the
        # per-sink index directly -- the state a buggy ingester would leave.
        dirty._sink_reflectors["d"].append("r1")
        assert dirty.candidate_reflectors(dirty.demands[0]).count("r1") == 2

        demand = clean.demands[0]
        clean_subsets = _feasible_subsets(clean, demand, max_subset_size=3)
        dirty_subsets = _feasible_subsets(dirty, dirty.demands[0], max_subset_size=3)
        assert dirty_subsets == clean_subsets
        assert len(dirty_subsets) == len(set(dirty_subsets))
        assert all(len(set(subset)) == len(subset) for subset in dirty_subsets)

    def test_nodes_explored_not_inflated_by_duplicates(self):
        clean = self._two_reflector_problem()
        dirty = self._two_reflector_problem()
        dirty._sink_reflectors["d"].append("r2")
        clean_result = exact_design(clean)
        dirty_result = exact_design(dirty)
        assert dirty_result.nodes_explored == clean_result.nodes_explored
        assert dirty_result.optimal_cost == pytest.approx(clean_result.optimal_cost)
