"""Tests for the OverlayDesignProblem builder (repro.core.problem)."""

from __future__ import annotations

import pytest

from repro.core.problem import Demand, OverlayDesignProblem
from repro.core.weights import threshold_to_weight
from repro.workloads.tiny import build_tiny_problem


class TestBuilding:
    def test_counts(self, tiny_problem):
        assert tiny_problem.num_streams == 1
        assert tiny_problem.num_reflectors == 3
        assert tiny_problem.num_sinks == 2
        assert tiny_problem.num_demands == 2

    def test_duplicate_stream_rejected(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        with pytest.raises(ValueError):
            problem.add_stream("s")

    def test_duplicate_reflector_rejected(self):
        problem = OverlayDesignProblem()
        problem.add_reflector("r", cost=1.0, fanout=2)
        with pytest.raises(ValueError):
            problem.add_reflector("r", cost=1.0, fanout=2)

    def test_duplicate_sink_rejected(self):
        problem = OverlayDesignProblem()
        problem.add_sink("d")
        with pytest.raises(ValueError):
            problem.add_sink("d")

    def test_duplicate_demand_rejected(self, tiny_problem):
        with pytest.raises(ValueError):
            tiny_problem.add_demand("d1", "s", success_threshold=0.9)

    def test_duplicate_edges_rejected(self, tiny_problem):
        with pytest.raises(ValueError):
            tiny_problem.add_stream_edge("s", "r1", loss_probability=0.1, cost=1.0)
        with pytest.raises(ValueError):
            tiny_problem.add_delivery_edge("r1", "d1", loss_probability=0.1, cost=1.0)

    def test_unknown_references_rejected(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("r", cost=1.0, fanout=2)
        problem.add_sink("d")
        with pytest.raises(KeyError):
            problem.add_stream_edge("nope", "r", 0.1, 1.0)
        with pytest.raises(KeyError):
            problem.add_stream_edge("s", "nope", 0.1, 1.0)
        with pytest.raises(KeyError):
            problem.add_delivery_edge("nope", "d", 0.1, 1.0)
        with pytest.raises(KeyError):
            problem.add_delivery_edge("r", "nope", 0.1, 1.0)
        with pytest.raises(KeyError):
            problem.add_demand("nope", "s", 0.9)
        with pytest.raises(KeyError):
            problem.add_demand("d", "nope", 0.9)

    def test_invalid_numbers_rejected(self):
        problem = OverlayDesignProblem()
        with pytest.raises(ValueError):
            problem.add_stream("s", bandwidth=0.0)
        problem.add_stream("s")
        with pytest.raises(ValueError):
            problem.add_reflector("r", cost=-1.0, fanout=2)
        with pytest.raises(ValueError):
            problem.add_reflector("r", cost=1.0, fanout=0)
        problem.add_reflector("r", cost=1.0, fanout=2)
        problem.add_sink("d")
        with pytest.raises(ValueError):
            problem.add_stream_edge("s", "r", loss_probability=1.5, cost=1.0)
        with pytest.raises(ValueError):
            problem.add_stream_edge("s", "r", loss_probability=0.1, cost=-1.0)
        with pytest.raises(ValueError):
            problem.add_demand("d", "s", success_threshold=1.0)
        with pytest.raises(ValueError):
            problem.add_demand("d", "s", success_threshold=0.0)

    def test_colors_grouping(self):
        problem = OverlayDesignProblem()
        problem.add_reflector("a", cost=1, fanout=1, color="isp1")
        problem.add_reflector("b", cost=1, fanout=1, color="isp1")
        problem.add_reflector("c", cost=1, fanout=1, color="isp2")
        problem.add_reflector("d", cost=1, fanout=1)
        groups = problem.colors()
        assert set(groups) == {"isp1", "isp2"}
        assert sorted(groups["isp1"]) == ["a", "b"]
        assert groups["isp2"] == ["c"]


class TestDerivedQuantities:
    def test_candidate_reflectors(self, tiny_problem):
        demand = tiny_problem.demands[0]
        assert set(tiny_problem.candidate_reflectors(demand)) == {"r1", "r2", "r3"}

    def test_candidate_requires_both_edges(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("r1", cost=1.0, fanout=2)
        problem.add_reflector("r2", cost=1.0, fanout=2)
        problem.add_sink("d")
        problem.add_stream_edge("s", "r1", 0.1, 1.0)
        problem.add_delivery_edge("r2", "d", 0.1, 1.0)
        problem.add_demand("d", "s", 0.9)
        demand = problem.demands[0]
        assert problem.candidate_reflectors(demand) == []

    def test_candidate_reflectors_match_full_scan_order(self):
        # The per-sink delivery index must reproduce exactly what a brute
        # force scan over registration order would return, for every demand.
        from repro.workloads import RandomInstanceConfig, random_problem

        problem = random_problem(
            RandomInstanceConfig(num_streams=3, num_reflectors=12, num_sinks=25), rng=17
        )
        for demand in problem.demands:
            brute_force = [
                reflector
                for reflector in problem.reflectors
                if problem.has_stream_edge(demand.stream, reflector)
                and problem.has_delivery_link(reflector, demand.sink)
            ]
            assert problem.candidate_reflectors(demand) == brute_force

    def test_path_failure_uses_serial_rule(self, tiny_problem):
        demand = tiny_problem.demands[0]  # sink d1
        value = tiny_problem.path_failure(demand, "r1")
        assert value == pytest.approx(0.01 + 0.02 - 0.01 * 0.02)

    def test_demand_weight(self, tiny_problem):
        demand = tiny_problem.demands[0]
        assert tiny_problem.demand_weight(demand) == pytest.approx(
            threshold_to_weight(0.995)
        )

    def test_edge_weight_is_capped_at_demand_weight(self, tiny_problem):
        demand = tiny_problem.demands[0]
        for reflector in tiny_problem.candidate_reflectors(demand):
            assert tiny_problem.edge_weight(demand, reflector) <= tiny_problem.demand_weight(
                demand
            ) + 1e-12

    def test_edge_weight_uncapped_larger_when_loss_small(self, tiny_problem):
        demand = tiny_problem.demands[0]
        capped = tiny_problem.edge_weight(demand, "r1", cap_at_demand=True)
        uncapped = tiny_problem.edge_weight(demand, "r1", cap_at_demand=False)
        assert uncapped >= capped

    def test_delivery_cost_stream_override(self):
        problem = OverlayDesignProblem()
        problem.add_stream("hd")
        problem.add_stream("sd")
        problem.add_reflector("r", cost=1.0, fanout=4)
        problem.add_sink("d")
        problem.add_stream_edge("hd", "r", 0.01, 1.0)
        problem.add_stream_edge("sd", "r", 0.01, 1.0)
        problem.add_delivery_edge("r", "d", 0.05, cost=1.0, stream_costs={"hd": 3.0})
        assert problem.delivery_cost("r", "d", "hd") == 3.0
        assert problem.delivery_cost("r", "d", "sd") == 1.0

    def test_assignment_cost(self, tiny_problem):
        demand = tiny_problem.demands[1]  # d2
        assert tiny_problem.assignment_cost(demand, "r3") == pytest.approx(0.2)

    def test_missing_edge_lookup_raises(self, tiny_problem):
        with pytest.raises(KeyError):
            tiny_problem.stream_edge("s", "missing")
        with pytest.raises(KeyError):
            tiny_problem.delivery_loss("r1", "missing")


class TestValidationAndFeasibility:
    def test_validate_ok(self, tiny_problem):
        tiny_problem.validate()  # should not raise

    def test_validate_empty(self):
        with pytest.raises(ValueError):
            OverlayDesignProblem().validate()

    def test_validate_unreachable_demand(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("r", cost=1.0, fanout=2)
        problem.add_sink("d")
        problem.add_stream_edge("s", "r", 0.1, 1.0)
        problem.add_demand("d", "s", 0.9)
        with pytest.raises(ValueError):
            problem.validate()

    def test_feasibility_report_flags_impossible_demand(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("r", cost=1.0, fanout=2)
        problem.add_sink("d")
        # A very lossy single path cannot give 0.999 success.
        problem.add_stream_edge("s", "r", 0.3, 1.0)
        problem.add_delivery_edge("r", "d", 0.3, 1.0)
        problem.add_demand("d", "s", success_threshold=0.999)
        issues = problem.feasibility_report()
        assert len(issues) == 1
        assert issues[0].demand.key == ("d", "s")
        assert issues[0].available_weight < issues[0].required_weight

    def test_feasibility_report_empty_for_good_instance(self, tiny_problem):
        assert tiny_problem.feasibility_report() == []


class TestDemandObject:
    def test_key(self):
        demand = Demand("d", "s", 0.9)
        assert demand.key == ("d", "s")

    def test_build_helper_used_by_fixtures(self):
        problem = build_tiny_problem()
        assert problem.num_demands == 2
