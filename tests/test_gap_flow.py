"""The GAP flow solver on hand-made and random arc arrays.

:func:`repro.core.gap.solve_gap_flow` solves any :class:`GapNetwork` -- not
only a Figure-2 one -- as one LP, so textbook max-flow and min-cost
instances check it directly.  Random networks are checked against the
successive-shortest-path oracle in ``tests/gap_oracle.py`` and against the
optimality certificates of both solvers' flows: no augmenting ``s -> T`` path
(maximum) and no negative-cost residual cycle (cheapest among the maximum
flows).
"""

from __future__ import annotations

import numpy as np
import pytest
from gap_oracle import ssp_min_cost_max_flow
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gap import (
    SINK,
    SOURCE,
    GapFlowError,
    GapNetwork,
    check_gap_flow,
    solve_gap_flow,
)


def network(num_nodes: int, arcs: list[tuple]) -> GapNetwork:
    """Arcs ``(tail, head, capacity[, cost])``; node 0 is ``s``, node 1 is ``T``."""
    return GapNetwork(
        num_nodes=num_nodes,
        tail=np.asarray([arc[0] for arc in arcs], dtype=np.int64),
        head=np.asarray([arc[1] for arc in arcs], dtype=np.int64),
        capacity=np.asarray([arc[2] for arc in arcs], dtype=float),
        cost=np.asarray([arc[3] if len(arc) > 3 else 0.0 for arc in arcs], dtype=float),
        pair=np.full(len(arcs), -1, dtype=np.int64),
        box=np.full(len(arcs), -1, dtype=np.int64),
        reflectors=[],
        pairs=[],
        boxes=[],
    )


def flow_value(gap: GapNetwork, flow: np.ndarray) -> float:
    return float(flow[gap.head == SINK].sum())


def _residual_arcs(gap: GapNetwork, flow: np.ndarray) -> list[tuple[int, int, float]]:
    arcs = []
    for a in range(gap.num_arcs):
        u, v, c = int(gap.tail[a]), int(gap.head[a]), float(gap.cost[a])
        if flow[a] < gap.capacity[a]:
            arcs.append((u, v, c))
        if flow[a] > 0:
            arcs.append((v, u, -c))
    return arcs


def has_augmenting_path(gap: GapNetwork, flow: np.ndarray) -> bool:
    """Whether the residual graph of ``flow`` still has an ``s -> T`` path."""
    residual = _residual_arcs(gap, flow)
    reached, frontier = {SOURCE}, [SOURCE]
    while frontier:
        node = frontier.pop()
        for u, v, _cost in residual:
            if u == node and v not in reached:
                reached.add(v)
                frontier.append(v)
    return SINK in reached


def has_negative_cycle(gap: GapNetwork, flow: np.ndarray) -> bool:
    """Bellman-Ford from every node at once over the residual graph of ``flow``."""
    residual = _residual_arcs(gap, flow)
    dist = [0.0] * gap.num_nodes
    for _ in range(gap.num_nodes):
        changed = False
        for u, v, cost in residual:
            if dist[u] + cost < dist[v] - 1e-9:
                dist[v] = dist[u] + cost
                changed = True
        if not changed:
            return False
    return True


def random_network(rng: np.random.Generator, num_nodes: int, num_arcs: int, max_cost: int = 0):
    """Random arcs with integer capacities; none enters ``s`` or leaves ``T``."""
    arcs = []
    for _ in range(num_arcs):
        u, v = (int(node) for node in rng.integers(0, num_nodes, size=2))
        if u == v or v == SOURCE or u == SINK:
            continue
        arcs.append((u, v, float(rng.integers(1, 10)), float(rng.integers(0, max_cost + 1))))
    return network(num_nodes, arcs)


def classic_example() -> GapNetwork:
    """The standard 6-node max-flow textbook example (max flow = 23)."""
    s, t, a, b, c, d = range(6)
    return network(
        6,
        [
            (s, a, 16),
            (s, b, 13),
            (a, b, 10),
            (b, a, 4),
            (a, c, 12),
            (c, b, 9),
            (b, d, 14),
            (d, c, 7),
            (c, t, 20),
            (d, t, 4),
        ],
    )


class TestMaxFlowKnownInstances:
    def test_classic_clrs_example(self):
        gap = classic_example()
        flow = solve_gap_flow(gap)
        assert flow_value(gap, flow) == 23.0
        assert flow_value(gap, ssp_min_cost_max_flow(gap)) == 23.0
        assert not has_augmenting_path(gap, flow)

    def test_single_edge(self):
        gap = network(2, [(SOURCE, SINK, 5.0)])
        np.testing.assert_array_equal(solve_gap_flow(gap), [5.0])

    def test_disconnected(self):
        gap = network(3, [(SOURCE, 2, 4.0)])
        np.testing.assert_array_equal(solve_gap_flow(gap), [0.0])

    def test_parallel_edges(self):
        gap = network(2, [(SOURCE, SINK, 1.0), (SOURCE, SINK, 2.0)])
        np.testing.assert_array_equal(solve_gap_flow(gap), [1.0, 2.0])

    def test_bipartite_unit_capacities(self):
        """Unit-capacity bipartite graph: max flow equals a maximum matching."""
        lefts, rights = (2, 3, 4), (5, 6, 7)
        arcs = [(SOURCE, left, 1.0) for left in lefts] + [(right, SINK, 1.0) for right in rights]
        # l0-r0, l0-r1, l1-r1, l2-r2 -> perfect matching exists.
        arcs += [(2, 5, 1.0), (2, 6, 1.0), (3, 6, 1.0), (4, 7, 1.0)]
        gap = network(8, arcs)
        assert flow_value(gap, solve_gap_flow(gap)) == 3.0


class TestMaxFlowAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(4, 12))
        gap = random_network(rng, num_nodes, int(rng.integers(num_nodes, 4 * num_nodes)))
        flow = solve_gap_flow(gap)
        oracle = check_gap_flow(gap, ssp_min_cost_max_flow(gap))
        assert flow_value(gap, flow) == flow_value(gap, oracle)
        assert not has_augmenting_path(gap, flow)
        assert not has_augmenting_path(gap, oracle)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_flow_feasible_and_maximal(self, seed):
        """The flow is integral and feasible, and the residual graph has no s->T path."""
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(3, 9))
        gap = random_network(rng, num_nodes, int(rng.integers(2, 3 * num_nodes)))
        flow = solve_gap_flow(gap)
        np.testing.assert_array_equal(check_gap_flow(gap, flow), flow)
        assert not has_augmenting_path(gap, flow)
        assert flow_value(gap, flow) == flow_value(gap, ssp_min_cost_max_flow(gap))


class TestMinCostMaxFlow:
    def test_two_path_network_prefers_cheap_path(self):
        s, t, a, b = range(4)
        gap = network(4, [(s, a, 2, 1.0), (a, t, 2, 1.0), (s, b, 2, 5.0), (b, t, 2, 5.0)])
        flow = solve_gap_flow(gap)
        np.testing.assert_array_equal(flow, [2.0, 2.0, 2.0, 2.0])
        assert gap.cost @ flow == 2 * 2.0 + 2 * 10.0

    def test_bottleneck_uses_cheapest_path(self):
        """A source arc of capacity 2 feeds two paths; the cheap one carries it."""
        s, t, x, a, b = range(5)
        gap = network(
            5,
            [(s, x, 2, 0.0), (x, a, 2, 1.0), (a, t, 2, 1.0), (x, b, 2, 5.0), (b, t, 2, 5.0)],
        )
        flow = solve_gap_flow(gap)
        np.testing.assert_array_equal(flow, [2.0, 2.0, 2.0, 0.0, 0.0])
        assert gap.cost @ flow == 4.0

    def test_cost_matches_stored_flow(self):
        s, t, a = range(3)
        gap = network(3, [(s, a, 3, 2.0), (a, t, 2, 1.0)])
        flow = solve_gap_flow(gap)
        assert flow_value(gap, flow) == 2.0
        assert gap.cost @ flow == 2 * 2.0 + 2 * 1.0
        np.testing.assert_array_equal(flow, ssp_min_cost_max_flow(gap))

    def test_negative_costs_handled(self):
        """A negative-cost arc is used, and the reward still makes the flow maximal."""
        s, t, a, b = range(4)
        gap = network(
            4,
            [(s, a, 1, 1.0), (a, t, 1, -3.0), (s, b, 1, 1.0), (b, t, 1, 1.0), (a, b, 1, 0.0)],
        )
        flow = solve_gap_flow(gap)
        assert flow_value(gap, flow) == 2.0
        assert gap.cost @ flow == (1.0 - 3.0) + (1.0 + 1.0)
        assert not has_negative_cycle(gap, flow)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_match_oracle(self, seed):
        rng = np.random.default_rng(seed + 100)
        num_nodes = int(rng.integers(4, 10))
        gap = random_network(
            rng, num_nodes, int(rng.integers(num_nodes, 3 * num_nodes)), max_cost=9
        )
        flow = solve_gap_flow(gap)
        oracle = check_gap_flow(gap, ssp_min_cost_max_flow(gap))
        assert flow_value(gap, flow) == flow_value(gap, oracle)
        assert gap.cost @ flow == pytest.approx(gap.cost @ oracle, abs=1e-9)
        for solved in (flow, oracle):
            assert not has_augmenting_path(gap, solved)
            assert not has_negative_cycle(gap, solved)


def _path_network() -> GapNetwork:
    """``s -> a -> T`` with capacity 2 on both arcs."""
    return network(3, [(SOURCE, 2, 2.0), (2, SINK, 2.0)])


class TestFlowCheck:
    def test_zero_flow_is_feasible(self):
        np.testing.assert_array_equal(check_gap_flow(_path_network(), np.zeros(2)), [0.0, 0.0])

    def test_solved_flow_is_feasible(self):
        gap = _path_network()
        flow = solve_gap_flow(gap)
        np.testing.assert_array_equal(flow, [2.0, 2.0])
        np.testing.assert_array_equal(check_gap_flow(gap, flow), flow)

    def test_near_integral_flow_is_rounded(self):
        gap = _path_network()
        np.testing.assert_array_equal(check_gap_flow(gap, [1.0 + 1e-11, 1.0 - 1e-11]), [1.0, 1.0])

    def test_conservation_violation_detected(self):
        with pytest.raises(GapFlowError, match=r"not conserved at nodes \[2\]"):
            check_gap_flow(_path_network(), np.array([2.0, 1.0]))

    def test_capacity_violation_detected(self):
        gap = network(2, [(SOURCE, SINK, 1.0)])
        for flow in ([2.0], [-1.0]):
            with pytest.raises(GapFlowError, match="outside"):
                check_gap_flow(gap, np.array(flow))

    def test_terminals_excluded_from_conservation(self):
        """Only ``s`` and ``T`` are out of balance; that is the flow value."""
        gap = network(3, [(SOURCE, 2, 2.0), (2, SINK, 2.0), (SOURCE, SINK, 1.0)])
        np.testing.assert_array_equal(check_gap_flow(gap, np.array([1.0, 1.0, 1.0])), [1, 1, 1])

    def test_wrong_shape_rejected(self):
        with pytest.raises(GapFlowError, match="shape"):
            check_gap_flow(_path_network(), np.zeros(3))
