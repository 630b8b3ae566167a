"""Tests for the Section-5 modified GAP rounding (repro.core.gap)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.formulation import build_sparse_formulation
from repro.core.gap import (
    SINK,
    SOURCE,
    GapFlowError,
    WeightBox,
    build_boxes_for_demand,
    build_gap_network,
    check_gap_flow,
    gap_round,
    solve_gap,
)
from repro.core.problem import Demand
from repro.core.rounding import RoundingParameters, round_solution


@pytest.fixture
def rounded_tiny(tiny_problem):
    formulation = build_sparse_formulation(tiny_problem)
    fractional = formulation.fractional_solution(formulation.solve()).support()
    return round_solution(tiny_problem, fractional, RoundingParameters(c=64.0, seed=0))


class TestBoxConstruction:
    DEMAND = Demand("d", "s", 0.99)

    def test_single_full_unit_gives_one_box(self):
        boxes = build_boxes_for_demand(self.DEMAND, [("r1", 3.0, 1.0)])
        # floor(2 * 1.0) = 2 boxes, last dropped -> 1 box.
        assert len(boxes) == 1
        assert boxes[0].upper == pytest.approx(3.0)
        assert boxes[0].contains(3.0)

    def test_two_units_of_mass_give_three_boxes(self):
        entries = [("r1", 5.0, 1.0), ("r2", 4.0, 0.6), ("r3", 3.0, 0.4)]
        boxes = build_boxes_for_demand(self.DEMAND, entries)
        # total mass 2.0 -> 4 raw boxes, drop last -> 3.
        assert len(boxes) == 3
        # Boxes are ordered by decreasing weight intervals.
        for earlier, later in zip(boxes, boxes[1:]):
            assert earlier.lower >= later.upper - 1e-12 or earlier.lower >= later.lower

    def test_interval_endpoints_follow_sorted_weights(self):
        entries = [("a", 10.0, 0.5), ("b", 6.0, 0.5), ("c", 2.0, 0.5)]
        boxes = build_boxes_for_demand(self.DEMAND, entries)
        # cumulative crosses 0.5 at a, 1.0 at b, 1.5 at c -> 3 raw boxes, 2 kept.
        assert len(boxes) == 2
        assert boxes[0].upper == pytest.approx(10.0)
        assert boxes[0].lower == pytest.approx(10.0)
        assert boxes[1].upper == pytest.approx(10.0)
        assert boxes[1].lower == pytest.approx(6.0)

    def test_degenerate_mass_keeps_one_box_by_default(self):
        boxes = build_boxes_for_demand(self.DEMAND, [("r1", 3.0, 0.6)])
        assert len(boxes) == 1

    def test_degenerate_mass_dropped_in_strict_paper_mode(self):
        boxes = build_boxes_for_demand(
            self.DEMAND, [("r1", 3.0, 0.6)], keep_degenerate_box=False
        )
        assert boxes == []

    def test_zero_mass_gives_no_boxes(self):
        assert build_boxes_for_demand(self.DEMAND, [("r1", 3.0, 0.0)]) == []
        assert build_boxes_for_demand(self.DEMAND, []) == []

    def test_box_contains_tolerance(self):
        box = WeightBox(("d", "s"), 0, upper=2.0, lower=1.0)
        assert box.contains(1.0)
        assert box.contains(2.0)
        assert box.contains(1.5)
        assert not box.contains(0.5)
        assert not box.contains(2.5)


def _node_levels(gap):
    """Figure-2 level of every node, read off the arc kinds."""
    level = np.zeros(gap.num_nodes, dtype=int)
    level[SOURCE], level[SINK] = 1, 5
    level[2 : 2 + len(gap.reflectors)] = 2
    pair_arcs = (gap.pair >= 0) & (gap.box < 0)
    level[gap.head[pair_arcs]] = 3
    level[gap.tail[(gap.pair < 0) & (gap.box >= 0)]] = 4
    return level


class TestGapNetworkStructure:
    def test_network_levels_and_capacities(self, tiny_problem, rounded_tiny):
        gap = build_gap_network(tiny_problem, rounded_tiny)
        level = _node_levels(gap)
        assert np.all(level > 0), "every node sits on one of the five levels"
        # Every arc goes one level down: s -> reflector -> pair -> box -> T.
        assert np.all(level[gap.head] == level[gap.tail] + 1)
        # Every pair arc has doubled capacity 2; every s -> reflector arc 2F.
        pair_arcs = (gap.pair >= 0) & (gap.box < 0)
        assert np.all(gap.capacity[pair_arcs] == 2.0)
        from_source = np.flatnonzero(gap.tail == SOURCE)
        assert len(from_source) == len(gap.reflectors)
        for arc in from_source:
            reflector = gap.reflectors[gap.head[arc] - 2]
            assert gap.capacity[arc] == pytest.approx(2.0 * tiny_problem.fanout(reflector))
        assert np.all(gap.capacity[gap.head == SINK] == 1.0)
        assert np.all(gap.capacity[(gap.pair >= 0) & (gap.box >= 0)] == 1.0)

    def test_pair_arcs_start_at_their_reflector_and_carry_half_cost(
        self, tiny_problem, rounded_tiny
    ):
        gap = build_gap_network(tiny_problem, rounded_tiny)
        demand_lookup = {d.key: d for d in tiny_problem.demands}
        for arc in np.flatnonzero((gap.pair >= 0) & (gap.box < 0)):
            reflector, demand_key = gap.pairs[gap.pair[arc]]
            assert gap.reflectors[gap.tail[arc] - 2] == reflector
            expected = tiny_problem.assignment_cost(demand_lookup[demand_key], reflector) / 2
            assert gap.cost[arc] == pytest.approx(expected)
        assert np.all(gap.cost[gap.box >= 0] == 0.0)

    def test_box_count_matches_box_arcs(self, tiny_problem, rounded_tiny):
        gap = build_gap_network(tiny_problem, rounded_tiny)
        into_sink = gap.head == SINK
        assert sorted(gap.box[into_sink]) == list(range(len(gap.boxes)))
        assert len(gap.boxes) >= tiny_problem.num_demands  # at least one box per served demand

    def test_pair_arcs_connect_only_matching_boxes(self, tiny_problem, rounded_tiny):
        gap = build_gap_network(tiny_problem, rounded_tiny)
        demand_lookup = {d.key: d for d in tiny_problem.demands}
        box_node = dict(zip(gap.box[gap.head == SINK], gap.tail[gap.head == SINK]))
        pair_node = {
            p: node for p, node, box in zip(gap.pair, gap.head, gap.box) if p >= 0 and box < 0
        }
        pair_box_arcs = np.flatnonzero((gap.pair >= 0) & (gap.box >= 0))
        assert len(pair_box_arcs) > 0
        for arc in pair_box_arcs:
            reflector, demand_key = gap.pairs[gap.pair[arc]]
            box = gap.boxes[gap.box[arc]]
            assert gap.tail[arc] == pair_node[gap.pair[arc]]
            assert gap.head[arc] == box_node[gap.box[arc]]
            assert box.demand_key == demand_key
            assert box.contains(tiny_problem.edge_weight(demand_lookup[demand_key], reflector))


class TestGapSolve:
    def test_flow_feasible_and_boxes_served(self, tiny_problem, rounded_tiny):
        gap = build_gap_network(tiny_problem, rounded_tiny)
        result = solve_gap(tiny_problem, gap)
        np.testing.assert_array_equal(check_gap_flow(gap, result.flow), result.flow)
        assert result.boxes_served <= result.boxes_total
        assert result.flow_value == pytest.approx(result.boxes_served, abs=1e-6)
        assert result.assignments, "expected at least one assignment"

    def test_check_rejects_fractional_flow(self, tiny_problem, rounded_tiny):
        gap = build_gap_network(tiny_problem, rounded_tiny)
        flow = solve_gap(tiny_problem, gap).flow.copy()
        flow[0] += 0.5
        with pytest.raises(GapFlowError, match="non-integral"):
            check_gap_flow(gap, flow)

    def test_check_rejects_capacity_violation(self, tiny_problem, rounded_tiny):
        gap = build_gap_network(tiny_problem, rounded_tiny)
        flow = np.zeros(gap.num_arcs)
        flow[np.flatnonzero(gap.head == SINK)[0]] = 2.0  # box -> T has capacity 1
        with pytest.raises(GapFlowError, match="outside"):
            check_gap_flow(gap, flow)

    def test_check_rejects_unbalanced_flow(self, tiny_problem, rounded_tiny):
        gap = build_gap_network(tiny_problem, rounded_tiny)
        flow = np.zeros(gap.num_arcs)
        flow[np.flatnonzero(gap.tail == SOURCE)[0]] = 1.0  # enters a reflector, never leaves
        with pytest.raises(GapFlowError, match="not conserved"):
            check_gap_flow(gap, flow)

    def test_assignments_subset_of_support(self, tiny_problem, rounded_tiny):
        result = gap_round(tiny_problem, rounded_tiny)
        assert set(result.assignments) <= set(rounded_tiny.x.keys())

    def test_weight_preserved_at_least_quarter(self, small_random_problem):
        """Section-5 guarantee: final weight >= 1/4 of the requirement (with paper c)."""
        formulation = build_sparse_formulation(small_random_problem)
        fractional = formulation.fractional_solution(formulation.solve()).support()
        rounded = round_solution(
            small_random_problem, fractional, RoundingParameters(c=64.0, seed=1)
        )
        result = gap_round(small_random_problem, rounded)
        served: dict = {}
        for reflector, demand_key in result.assignments:
            served.setdefault(demand_key, []).append(reflector)
        for demand in small_random_problem.demands:
            delivered = sum(
                small_random_problem.edge_weight(demand, r)
                for r in served.get(demand.key, [])
            )
            required = small_random_problem.demand_weight(demand)
            assert delivered >= required / 4.0 - 1e-9

    def test_fanout_violation_bounded_by_four(self, small_random_problem):
        formulation = build_sparse_formulation(small_random_problem)
        fractional = formulation.fractional_solution(formulation.solve()).support()
        rounded = round_solution(
            small_random_problem, fractional, RoundingParameters(c=64.0, seed=3)
        )
        result = gap_round(small_random_problem, rounded)
        load: dict = {}
        for reflector, _demand_key in result.assignments:
            load[reflector] = load.get(reflector, 0) + 1
        for reflector, used in load.items():
            assert used <= 4 * small_random_problem.fanout(reflector) + 1e-9

    def test_cost_accounts_delivery_edges(self, tiny_problem, rounded_tiny):
        result = gap_round(tiny_problem, rounded_tiny)
        expected = sum(
            tiny_problem.delivery_cost(reflector, sink, stream)
            for reflector, (sink, stream) in result.assignments
        )
        assert result.cost == pytest.approx(expected)

    def test_empty_rounding_gives_empty_result(self, tiny_problem, rounded_tiny):
        rounded_tiny.x = {}
        result = gap_round(tiny_problem, rounded_tiny)
        assert result.assignments == set()
        assert result.boxes_total == 0
