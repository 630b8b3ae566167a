"""Cross-module integration tests: workload -> design -> audit -> simulation."""

from __future__ import annotations

import pytest

from repro import DesignParameters, DesignPipeline, DesignRequest, run_request
from repro.analysis import audit_solution, check_paper_guarantees, compare_designs
from repro.core.extensions import color_constrained_parameters
from repro.core.rounding import RoundingParameters
from repro.network.reliability import solution_reliability_summary
from repro.simulation import FailureSchedule, MonteCarloConfig, run_monte_carlo
from repro.workloads import (
    AkamaiLikeConfig,
    FlashCrowdConfig,
    generate_akamai_like_topology,
    generate_flash_crowd_scenario,
)


def design(problem, parameters):
    """The ``DesignResult`` of one ``"spaa03"`` registry run."""
    return run_request(DesignRequest(problem=problem, parameters=parameters))


def baseline(strategy, problem):
    return run_request(DesignRequest(problem=problem, strategy=strategy)).solution


@pytest.fixture(scope="module")
def akamai_setup():
    config = AkamaiLikeConfig(num_regions=2, colos_per_region=3, num_isps=3, num_streams=2)
    topology, registry = generate_akamai_like_topology(config, rng=0)
    problem = topology.to_problem()
    return topology, registry, problem


class TestAkamaiWorkloadEndToEnd:
    def test_design_meets_paper_guarantees(self, akamai_setup):
        _topology, _registry, problem = akamai_setup
        report = design(problem, DesignParameters(seed=1))
        checks = check_paper_guarantees(problem, report)
        assert all(check.holds for check in checks), [
            (c.name, c.measured, c.bound) for c in checks if not c.holds
        ]

    def test_repaired_design_meets_thresholds_and_simulates_cleanly(self, akamai_setup):
        _topology, _registry, problem = akamai_setup
        report = design(problem, DesignParameters(seed=1, repair_shortfall=True))
        solution = report.solution
        # Analytic: (almost) every demand should now meet its threshold.
        below = solution.demands_below_threshold()
        assert len(below) <= max(1, problem.num_demands // 10)
        # Simulated: measured loss within each demand's budget (with slack for noise).
        sim = run_monte_carlo(
            problem, solution, MonteCarloConfig(num_packets=20_000, trials=1, seed=2)
        )
        for demand in problem.demands:
            measured_loss = sim.mean_loss_per_demand[sim.demand_index(demand.key)]
            analytic_loss = solution.failure_probability(demand)
            assert measured_loss == pytest.approx(analytic_loss, abs=0.01)

    def test_algorithm_cheaper_than_naive_with_comparable_quality(self, akamai_setup):
        _topology, _registry, problem = akamai_setup
        report = design(problem, DesignParameters(seed=3, repair_shortfall=True))
        designs = {
            "spaa03+repair": report.solution,
            "greedy": baseline("greedy", problem),
            "naive": baseline("naive-quality-first", problem),
            "single-tree": baseline("single-tree", problem),
        }
        rows = {row["design"]: row for row in compare_designs(problem, designs)}
        # The LP-based design should not cost more than the quality-first baseline.
        assert rows["spaa03+repair"]["total_cost"] <= rows["naive"]["total_cost"] * 1.05
        # And the redundant design meets far more quality targets than a single
        # multicast tree, which cannot reach the strict thresholds at all.
        assert (
            rows["spaa03+repair"]["fraction_meeting_threshold"]
            >= rows["single-tree"]["fraction_meeting_threshold"]
        )
        assert rows["spaa03+repair"]["fraction_meeting_threshold"] >= 0.85

    def test_isp_outage_resilience_of_diverse_design(self, akamai_setup):
        _topology, registry, problem = akamai_setup
        params = color_constrained_parameters(
            DesignParameters(seed=5, repair_shortfall=True)
        )
        diverse = DesignPipeline.extended().run(problem, params).solution
        tree = baseline("single-tree", problem)
        diverse_summary = solution_reliability_summary(problem, diverse, registry)
        tree_summary = solution_reliability_summary(problem, tree, registry)
        assert (
            diverse_summary["mean_success_worst_single_outage"]
            >= tree_summary["mean_success_worst_single_outage"] - 1e-9
        )

    def test_simulated_isp_outage_matches_scenario_analysis(self, akamai_setup):
        topology, registry, problem = akamai_setup
        report = design(problem, DesignParameters(seed=7, repair_shortfall=True))
        solution = report.solution
        victim = registry.names()[0]
        # Restrict the outage to reflector nodes so the simulation matches the
        # Section-6.4 analytical model (which removes reflectors of the failed
        # ISP but keeps edgeservers reachable).
        node_isp = {r: problem.color(r) for r in problem.reflectors}
        schedule = FailureSchedule.single_isp_outage(victim, 10_000, fraction=1.0)
        sim = run_monte_carlo(
            problem,
            solution,
            MonteCarloConfig(num_packets=10_000, trials=1, failures=schedule, seed=3),
            node_isp=node_isp,
        )
        from repro.network.reliability import demand_success_probability

        for demand in problem.demands:
            expected_success = demand_success_probability(
                problem,
                demand,
                solution.reflectors_serving(demand),
                failed_isps={victim},
                reflector_isp={r: node_isp.get(r) for r in problem.reflectors},
            )
            measured_loss = sim.mean_loss_per_demand[sim.demand_index(demand.key)]
            assert measured_loss == pytest.approx(1.0 - expected_success, abs=0.02)


class TestFlashCrowdEndToEnd:
    def test_flash_crowd_design_and_simulation(self):
        config = FlashCrowdConfig(
            deployment=AkamaiLikeConfig(num_regions=2, colos_per_region=2, num_streams=1)
        )
        topology, _registry = generate_flash_crowd_scenario(config, rng=4)
        problem = topology.to_problem()
        report = design(
            problem,
            DesignParameters(
                seed=0, repair_shortfall=True, rounding=RoundingParameters(c=16.0)
            ),
        )
        event_demands = [d for d in problem.demands if d.stream == "flash-crowd-event"]
        assert event_demands
        served = [d for d in event_demands if report.solution.reflectors_serving(d)]
        assert len(served) == len(event_demands)
        audit = audit_solution(problem, report.solution)
        assert audit.max_fanout_factor <= 4.0 + 1e-9

    def test_deterministic_end_to_end(self):
        config = FlashCrowdConfig(
            deployment=AkamaiLikeConfig(num_regions=2, colos_per_region=2, num_streams=1)
        )
        topology_a, _ = generate_flash_crowd_scenario(config, rng=9)
        topology_b, _ = generate_flash_crowd_scenario(config, rng=9)
        problem_a, problem_b = topology_a.to_problem(), topology_b.to_problem()
        report_a = design(problem_a, DesignParameters(seed=1))
        report_b = design(problem_b, DesignParameters(seed=1))
        assert report_a.solution.assignments == report_b.solution.assignments
        assert report_a.solution.total_cost() == pytest.approx(
            report_b.solution.total_cost()
        )
