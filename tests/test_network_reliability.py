"""Tests for exact reliability computation (repro.network.reliability)."""

from __future__ import annotations

import pytest

from repro.core.solution import OverlaySolution
from repro.network.isp import ISP, ISPRegistry
from repro.network.reliability import (
    delivery_success_probability,
    demand_success_probability,
    isp_outage_success_probability,
    solution_reliability_summary,
)


@pytest.fixture
def colored_tiny(tiny_problem):
    """Tiny problem re-labelled with ISP colors (conftest problem has none)."""
    # Rebuild with colors to exercise the ISP-aware paths.
    from repro.core.problem import OverlayDesignProblem

    problem = OverlayDesignProblem(name="tiny-colored")
    problem.add_stream("s")
    problem.add_reflector("r1", cost=10.0, fanout=3, color="ispA")
    problem.add_reflector("r2", cost=6.0, fanout=2, color="ispB")
    problem.add_reflector("r3", cost=4.0, fanout=2, color="ispA")
    problem.add_sink("d1")
    problem.add_sink("d2")
    for edge in tiny_problem.stream_edges():
        problem.add_stream_edge(edge.stream, edge.reflector, edge.loss_probability, edge.cost)
    for reflector, sink in tiny_problem.delivery_links():
        problem.add_delivery_edge(
            reflector,
            sink,
            loss_probability=tiny_problem.delivery_loss(reflector, sink),
            cost=tiny_problem.delivery_cost(reflector, sink, "s"),
        )
    for demand in tiny_problem.demands:
        problem.add_demand(demand.sink, demand.stream, demand.success_threshold)
    return problem


class TestDeliverySuccess:
    def test_independent_paths_product_rule(self):
        assert delivery_success_probability([0.1, 0.2]) == pytest.approx(1 - 0.02)
        assert delivery_success_probability([]) == 0.0

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            delivery_success_probability([1.2])


class TestDemandSuccess:
    def test_matches_solution_computation(self, colored_tiny):
        solution = OverlaySolution.from_assignments(
            colored_tiny, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r2"]}
        )
        demand = colored_tiny.demands[0]
        expected = solution.success_probability(demand)
        computed = demand_success_probability(
            colored_tiny, demand, solution.reflectors_serving(demand)
        )
        assert computed == pytest.approx(expected)

    def test_failed_isp_removes_paths(self, colored_tiny):
        demand = colored_tiny.demands[0]
        both = demand_success_probability(colored_tiny, demand, ["r1", "r2"])
        without_a = demand_success_probability(
            colored_tiny, demand, ["r1", "r2"], failed_isps={"ispA"}
        )
        only_r2 = demand_success_probability(colored_tiny, demand, ["r2"])
        assert without_a == pytest.approx(only_r2)
        assert without_a < both

    def test_all_paths_down_gives_zero(self, colored_tiny):
        demand = colored_tiny.demands[0]
        assert (
            demand_success_probability(
                colored_tiny, demand, ["r1", "r3"], failed_isps={"ispA"}
            )
            == 0.0
        )


class TestIspOutageExpectation:
    def test_expectation_between_best_and_worst_case(self, colored_tiny):
        registry = ISPRegistry()
        for isp in (ISP("ispA", 0.05), ISP("ispB", 0.05)):
            registry.add(isp)
        solution = OverlaySolution.from_assignments(
            colored_tiny, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1", "r2"]}
        )
        demand = colored_tiny.demands[0]
        expected = isp_outage_success_probability(colored_tiny, solution, demand, registry)
        no_outage = solution.success_probability(demand)
        assert 0.0 < expected <= no_outage + 1e-12

    def test_no_isps_reduces_to_plain_reliability(self, colored_tiny):
        registry = ISPRegistry()
        solution = OverlaySolution.from_assignments(colored_tiny, {("d1", "s"): ["r1"]})
        demand = colored_tiny.demands[0]
        assert isp_outage_success_probability(
            colored_tiny, solution, demand, registry
        ) == pytest.approx(solution.success_probability(demand))

    def test_diverse_isps_more_resilient_than_single_isp(self, colored_tiny):
        """The Section-6.4 motivation: spreading copies across ISPs survives outages."""
        registry = ISPRegistry()
        for isp in (ISP("ispA", 0.2), ISP("ispB", 0.2)):
            registry.add(isp)
        demand = colored_tiny.demands[0]
        diverse = OverlaySolution.from_assignments(colored_tiny, {demand.key: ["r1", "r2"]})
        same_isp = OverlaySolution.from_assignments(colored_tiny, {demand.key: ["r1", "r3"]})
        diverse_success = isp_outage_success_probability(
            colored_tiny, diverse, demand, registry
        )
        same_success = isp_outage_success_probability(
            colored_tiny, same_isp, demand, registry
        )
        assert diverse_success > same_success


class TestSummary:
    def test_summary_without_registry(self, colored_tiny):
        solution = OverlaySolution.from_assignments(
            colored_tiny, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1", "r2"]}
        )
        summary = solution_reliability_summary(colored_tiny, solution)
        assert summary["num_demands"] == 2
        assert 0.0 <= summary["min_success"] <= summary["mean_success"] <= 1.0
        assert "mean_success_with_outages" not in summary

    def test_summary_with_registry_adds_outage_metrics(self, colored_tiny):
        registry = ISPRegistry()
        for isp in (ISP("ispA", 0.1), ISP("ispB", 0.1)):
            registry.add(isp)
        solution = OverlaySolution.from_assignments(
            colored_tiny, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r2"]}
        )
        summary = solution_reliability_summary(colored_tiny, solution, registry)
        assert "mean_success_with_outages" in summary
        assert summary["mean_success_with_outages"] <= summary["mean_success"] + 1e-12
        assert 0.0 <= summary["min_success_worst_single_outage"] <= 1.0
