"""Successive-shortest-path min-cost max flow: the differential oracle for GAP.

The Section-5 GAP stage solves its Figure-2 network as one LP
(:func:`repro.core.gap.solve_gap`).  This module keeps an independent
combinatorial solver for the same :class:`~repro.core.gap.GapNetwork` arc
arrays so the tests can check the LP against it: Dijkstra on reduced costs,
one augmenting path per iteration.  Figure-2 costs are non-negative, so zero
initial potentials are valid.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.gap import SINK, SOURCE, GapNetwork

_EPS = 1e-12
_INF = float("inf")


def ssp_min_cost_max_flow(gap: GapNetwork) -> np.ndarray:
    """Per-arc flow of a min-cost maximum ``s -> T`` flow of ``gap``."""
    assert np.all(gap.cost >= 0), "the oracle needs non-negative arc costs"
    # Residual arcs: 2a is arc a, 2a + 1 its reverse.
    head: list[int] = []
    residual: list[float] = []
    cost: list[float] = []
    out_arcs: list[list[int]] = [[] for _ in range(gap.num_nodes)]
    for a in range(gap.num_arcs):
        u, v, c = int(gap.tail[a]), int(gap.head[a]), float(gap.cost[a])
        out_arcs[u].append(len(head))
        head += [v, u]
        residual += [float(gap.capacity[a]), 0.0]
        cost += [c, -c]
        out_arcs[v].append(len(head) - 1)

    potential = [0.0] * gap.num_nodes
    while True:
        dist = [_INF] * gap.num_nodes
        parent = [-1] * gap.num_nodes
        dist[SOURCE] = 0.0
        heap = [(0.0, SOURCE)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for arc in out_arcs[node]:
                if residual[arc] <= _EPS:
                    continue
                target = head[arc]
                reduced = max(cost[arc] + potential[node] - potential[target], 0.0)
                if d + reduced < dist[target] - 1e-15:
                    dist[target] = d + reduced
                    parent[target] = arc
                    heapq.heappush(heap, (dist[target], target))
        if dist[SINK] == _INF:
            break
        for node, d in enumerate(dist):
            if d < _INF:
                potential[node] += d
        path = []
        node = SINK
        while node != SOURCE:
            path.append(parent[node])
            node = head[parent[node] ^ 1]
        bottleneck = min(residual[arc] for arc in path)
        for arc in path:
            residual[arc] -= bottleneck
            residual[arc ^ 1] += bottleneck
    return np.array(residual[1::2])


def oracle_assignments(gap: GapNetwork, flow: np.ndarray) -> set:
    """The (reflector, demand-key) pairs whose ``reflector -> pair`` arc is used."""
    pair_arcs = (gap.pair >= 0) & (gap.box < 0) & (flow > 0.5)
    return {gap.pairs[p] for p in gap.pair[pair_arcs]}
