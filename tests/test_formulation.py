"""Tests for the Section-2 LP formulation (repro.core.formulation)."""

from __future__ import annotations

import numpy as np
import pytest
from lp_oracle import formulation_families

from repro.core.formulation import (
    IPM_MIN_LOAD,
    IPM_MIN_NONZEROS,
    ExtensionOptions,
    build_sparse_formulation,
)
from repro.core.problem import OverlayDesignProblem
from repro.lp import Sense


def _families(formulation) -> set[str]:
    """Tags (``"(1)"``, ``"(7')"``, ...) of the constraint families built."""
    return {block.name.split()[0] for block in formulation.stats.blocks}


class TestFormulationStructure:
    def test_variable_counts(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        # z per reflector, y per stream edge, x per (reflector, demand) pair.
        assert len(formulation.z_keys) == 3
        assert len(formulation.y_keys) == 3
        assert len(formulation.x_keys) == 6
        assert formulation.num_variables == 12

    def test_constraint_families_present(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        assert _families(formulation) == {"(1)", "(2)", "(3)", "(4)", "(5)"}

    def test_weight_constraints_are_ge(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        weight_constraints = formulation_families(formulation)["(5)"]
        assert len(weight_constraints) == tiny_problem.num_demands
        assert all(row.sense is Sense.GE for row in weight_constraints)
        for row in weight_constraints:
            assert row.rhs > 0

    def test_cutting_plane_can_be_dropped(self, tiny_problem):
        base = build_sparse_formulation(tiny_problem)
        without = build_sparse_formulation(tiny_problem, ExtensionOptions(drop_cutting_plane=True))
        assert "(4)" in _families(base)
        assert "(4)" not in _families(without)
        assert without.num_constraints < base.num_constraints

    def test_coverage_coefficients_are_edge_weights(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        demands = {demand.key: demand for demand in tiny_problem.demands}
        for row in formulation_families(formulation)["(5)"]:
            for (_kind, (reflector, demand_key)), weight in row.coeffs.items():
                expected = tiny_problem.edge_weight(demands[demand_key], reflector)
                assert weight == pytest.approx(expected)

    def test_assignment_keys_cover_candidate_pairs(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        demand = tiny_problem.demands[0]
        keys = [key for key in formulation.x_keys if key[1] == demand.key]
        assert len(keys) == 3
        assert [key[0] for key in keys] == tiny_problem.candidate_reflectors(demand)
        r1_keys = [key for key in formulation.x_keys if key[0] == "r1"]
        assert len(r1_keys) == 2

    def test_invalid_problem_rejected(self):
        with pytest.raises(ValueError):
            build_sparse_formulation(OverlayDesignProblem())


class TestFormulationSolution:
    def test_lp_solves_and_is_feasible(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        solution = formulation.solve()
        assert solution.is_optimal
        # Every constraint of the LP is (near) satisfied by the solution.
        compiled = formulation.compiled
        assert np.all(compiled.A_ub @ solution.values <= compiled.b_ub + 1e-6)
        assert compiled.A_eq is None

    def test_fractional_solution_extraction(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        fractional = formulation.fractional_solution(formulation.solve())
        assert fractional.objective > 0
        assert set(fractional.z) == set(tiny_problem.reflectors)
        assert all(0.0 - 1e-9 <= value <= 1.0 + 1e-9 for value in fractional.z.values())
        assert all(0.0 - 1e-9 <= value <= 1.0 + 1e-9 for value in fractional.x.values())

    def test_fractional_weight_constraints_met(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        fractional = formulation.fractional_solution(formulation.solve())
        for demand in tiny_problem.demands:
            delivered = sum(
                fractional.x.get((reflector, demand.key), 0.0)
                * tiny_problem.edge_weight(demand, reflector)
                for reflector in tiny_problem.candidate_reflectors(demand)
            )
            assert delivered + 1e-6 >= tiny_problem.demand_weight(demand)

    def test_fractional_cost_matches_objective(self, tiny_problem):
        formulation = build_sparse_formulation(tiny_problem)
        fractional = formulation.fractional_solution(formulation.solve())
        assert fractional.cost(tiny_problem) == pytest.approx(fractional.objective, rel=1e-6)

    def test_lower_bound_monotone_in_demands(self, tiny_problem):
        """Adding a demand can only increase the LP optimum."""
        base = build_sparse_formulation(tiny_problem).solve().objective

        harder = OverlayDesignProblem(name="harder")
        harder.add_stream("s")
        for name in ("r1", "r2", "r3"):
            info = tiny_problem.reflector_info(name)
            harder.add_reflector(name, cost=info.cost, fanout=info.fanout)
        for sink in ("d1", "d2", "d3"):
            harder.add_sink(sink)
        for edge in tiny_problem.stream_edges():
            harder.add_stream_edge(edge.stream, edge.reflector, edge.loss_probability, edge.cost)
        for reflector, sink in tiny_problem.delivery_links():
            harder.add_delivery_edge(
                reflector,
                sink,
                loss_probability=tiny_problem.delivery_loss(reflector, sink),
                cost=tiny_problem.delivery_cost(reflector, sink, "s"),
            )
        harder.add_delivery_edge("r1", "d3", loss_probability=0.05, cost=0.5)
        harder.add_delivery_edge("r2", "d3", loss_probability=0.06, cost=0.5)
        for demand in tiny_problem.demands:
            harder.add_demand(demand.sink, demand.stream, demand.success_threshold)
        harder.add_demand("d3", "s", success_threshold=0.99)
        harder_bound = build_sparse_formulation(harder).solve().objective
        assert harder_bound >= base - 1e-9

    def test_unsolved_extraction_raises_for_infeasible(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("r", cost=1.0, fanout=1)
        problem.add_sink("d")
        problem.add_stream_edge("s", "r", 0.4, 1.0)
        problem.add_delivery_edge("r", "d", 0.4, 1.0)
        problem.add_demand("d", "s", success_threshold=0.9999)
        formulation = build_sparse_formulation(problem)
        lp_solution = formulation.solve()
        assert not lp_solution.is_optimal
        with pytest.raises(ValueError):
            formulation.fractional_solution(lp_solution)


class TestExtensionsInFormulation:
    def test_bandwidth_changes_fanout_constraints(self, tiny_problem):
        # With bandwidth 1.0 everywhere the constraints are unchanged; scale
        # one stream up by rebuilding the instance with a larger bandwidth.
        problem = OverlayDesignProblem()
        problem.add_stream("hd", bandwidth=4.0)
        problem.add_reflector("r", cost=1.0, fanout=4)
        problem.add_sink("d1")
        problem.add_sink("d2")
        problem.add_stream_edge("hd", "r", 0.01, 1.0)
        problem.add_delivery_edge("r", "d1", 0.02, 0.5)
        problem.add_delivery_edge("r", "d2", 0.02, 0.5)
        problem.add_demand("d1", "hd", 0.99)
        problem.add_demand("d2", "hd", 0.99)
        plain = build_sparse_formulation(problem)
        weighted = build_sparse_formulation(problem, ExtensionOptions(use_bandwidth=True))
        (plain_fanout,) = formulation_families(plain)["(3)"]
        (weighted_fanout,) = formulation_families(weighted)["(3)"]
        # Bandwidth 4 means each assignment consumes 4 units of fanout.
        plain_coeffs = sorted(plain_fanout.coeffs.values())
        weighted_coeffs = sorted(weighted_fanout.coeffs.values())
        assert max(weighted_coeffs) == pytest.approx(4.0)
        assert max(plain_coeffs) == pytest.approx(1.0)

    def test_reflector_capacity_constraint_added(self):
        problem = OverlayDesignProblem()
        problem.add_stream("a")
        problem.add_stream("b")
        problem.add_reflector("r", cost=1.0, fanout=4, capacity=1)
        problem.add_sink("d")
        problem.add_stream_edge("a", "r", 0.01, 1.0)
        problem.add_stream_edge("b", "r", 0.01, 1.0)
        problem.add_delivery_edge("r", "d", 0.02, 0.5)
        problem.add_demand("d", "a", 0.9)
        formulation = build_sparse_formulation(
            problem, ExtensionOptions(use_reflector_capacities=True)
        )
        assert "(8)" in _families(formulation)

    def test_arc_capacity_constraint_added(self):
        problem = OverlayDesignProblem()
        problem.add_stream("a")
        problem.add_reflector("r", cost=1.0, fanout=4)
        problem.add_sink("d")
        problem.add_stream_edge("a", "r", 0.01, 1.0)
        problem.add_delivery_edge("r", "d", 0.02, 0.5, capacity=1.0)
        problem.add_demand("d", "a", 0.9)
        formulation = build_sparse_formulation(problem, ExtensionOptions(use_arc_capacities=True))
        assert "(7')" in _families(formulation)

    def test_color_constraints_added_only_for_multi_member_groups(self, colored_problem):
        formulation = build_sparse_formulation(
            colored_problem, ExtensionOptions(use_color_constraints=True)
        )
        color_constraints = formulation_families(formulation).get("(9)", [])
        assert color_constraints, "expected color constraints on a colored instance"
        for row in color_constraints:
            assert row.sense is Sense.LE
            assert row.rhs == pytest.approx(1.0)
            assert len(row.coeffs) >= 2


def _shard_formulations(problem, shards="auto"):
    from repro.scale.partition import build_partition, extract_shard_problem

    plan = build_partition(problem, shards=shards)
    return [
        build_sparse_formulation(extract_shard_problem(problem, shard.sinks, name=shard.shard_id))
        for shard in plan.shards
    ]


def _load(formulation) -> float:
    """Delivery-candidate columns per unit of total reflector fanout."""
    problem = formulation.problem
    total_fanout = sum(problem.reflector_info(name).fanout for name in problem.reflectors)
    return len(formulation.x_keys) / total_fanout


class TestSolveMethodRule:
    """Which Section-2 LPs of the benchmark shapes ``solve`` sends to interior point.

    The rule needs both a large LP and loaded fanout (see ``IPM_MIN_LOAD``):
    monolithic ``as_geo`` designs pass it; shard LPs, whose remote reflectors
    keep their full fanout, and slack-fanout monoliths stay on simplex.
    """

    def test_design_mono_shape_takes_interior_point(self):
        from repro.workloads import AsGeoConfig, generate_as_geo_problem

        problem = generate_as_geo_problem(AsGeoConfig(num_sinks=300), rng=0)[0]
        formulation = build_sparse_formulation(problem)
        assert formulation.stats.num_nonzeros >= IPM_MIN_NONZEROS
        assert _load(formulation) >= IPM_MIN_LOAD
        assert formulation.interior_point

    def test_slack_fanout_monolith_stays_on_simplex(self):
        from repro.workloads import AsGeoConfig, generate_as_geo_problem

        config = AsGeoConfig(num_sinks=300, fanout_headroom=25)
        formulation = build_sparse_formulation(generate_as_geo_problem(config, rng=0)[0])
        assert formulation.stats.num_nonzeros >= IPM_MIN_NONZEROS
        assert not formulation.interior_point

    @pytest.mark.parametrize("num_sinks", [150, 1000])
    def test_serving_shards_stay_on_simplex(self, num_sinks):
        from repro.workloads import InternetScaleConfig, generate_internet_scale_problem

        config = InternetScaleConfig(num_sinks=num_sinks)
        formulations = _shard_formulations(generate_internet_scale_problem(config, rng=0)[0])
        assert len(formulations) > 1
        assert not any(f.interior_point for f in formulations)

    def test_large_shards_stay_on_simplex(self):
        # 15k-nonzero shard LPs: size alone would send them to interior point.
        from repro.workloads import InternetScaleConfig, generate_internet_scale_problem

        problem = generate_internet_scale_problem(InternetScaleConfig(num_sinks=2400), rng=0)[0]
        formulations = _shard_formulations(problem, shards=4)
        assert len(formulations) == 4
        for formulation in formulations:
            assert formulation.stats.num_nonzeros >= IPM_MIN_NONZEROS
            assert _load(formulation) < IPM_MIN_LOAD
            assert not formulation.interior_point
