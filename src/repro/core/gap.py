"""Modified generalized-assignment (GAP) rounding -- Section 5 / Figure 2.

After the Section-3 rounding the only fractional variables left are the
assignment values ``x_bar``.  The paper converts them to a 0/1 solution by
building a five-level flow network (Figure 2) and extracting a half-integral
min-cost flow:

* **level 1** -- a super source ``s``;
* **level 2** -- the reflectors; edge ``s -> i`` with capacity ``F_i``;
* **level 3** -- (reflector, sink) pairs with ``x_bar != 0``; edge
  ``i -> (i, j)`` with capacity 1;
* **level 4** -- per sink ``j``, ``s_j = floor(2 * sum_i x_bar_ij)`` *boxes*.
  The weights ``w_ij`` of the sink's candidate pairs are sorted in decreasing
  order and the ``x_bar`` mass is walked through in chunks of 1/2; each chunk
  defines a box whose *weight interval* spans the weights consumed by the
  chunk.  The last box is dropped.  A pair connects to every box whose
  interval contains its weight, with capacity 1/2;
* **level 5** -- a super sink ``T``; every box connects to it with capacity
  1/2, and the demand is 1/2 per box.

The fractional ``x_bar`` (reduced to respect capacities) saturates all box
demands, so a max flow saturates them too; because all capacities are
multiples of 1/2 there is a *half-integral* min-cost max flow.  Interpreting
"pair (i, j) carries positive flow" as ``x_ij = 1`` ("doubling the halves")
yields the final integral solution, which violates fanout by at most another
factor 2 (total 4) and preserves at least half the delivered weight (total
factor 4, i.e. the final failure probability is at most the fourth root of
the target).

Implementation notes
---------------------
* The network is kept as flat arc arrays (:class:`GapNetwork`) and solved as
  one sparse node-arc LP with HiGHS: a conservation row for every node
  except ``s`` and ``T``, bounds ``[0, capacity]`` on every arc.
* All capacities are doubled, so they are integers.  A node-arc incidence
  matrix is totally unimodular, hence every vertex of the LP polytope is an
  integral flow and the simplex optimum is one; dividing by two recovers the
  paper's half-integral flow.  :func:`check_gap_flow` verifies integrality,
  capacities and conservation of every returned flow and raises
  :class:`GapFlowError` otherwise.
* Max flow first, cost second: each ``box -> T`` arc earns a reward larger
  than ``sum |cost| * capacity``.  Between integral flows one more unit of
  flow outweighs any cost difference, so the optimum is the cheapest among
  the maximum flows.
* Degenerate box counts: if ``sum_i x_bar_ij < 1`` the paper's rule would give
  zero boxes after dropping the last one, which would leave the demand
  entirely unserved.  We keep a single box in that case (and only drop the
  last box when ``s_j >= 2``); this is a strict improvement in delivered
  weight and never hurts the other guarantees.  The deviation is recorded in
  EXPERIMENTS.md.
* Costs: the per-unit cost of the ``i -> (i, j)`` edge is half the assignment
  cost, so that the doubled flow pays exactly the assignment cost when a pair
  is fully used and half of it when it is used "halfway" (the paper accounts
  for the doubling inside its O(log n) cost factor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.index import problem_index
from repro.core.lp_solution import AssignmentKey, RoundedSolution
from repro.core.problem import Demand, OverlayDesignProblem
from repro.lp import CompiledLP, LPStatus, solve_compiled

#: x_bar values smaller than this are treated as zero mass.
_MASS_TOL = 1e-12

#: Node indices of the super source ``s`` and the super sink ``T``.
SOURCE = 0
SINK = 1

#: How far an LP flow value may sit from an integer or outside its capacity bounds.
_FLOW_TOL = 1e-9


class GapFlowError(RuntimeError):
    """The GAP LP returned something that is not an integral feasible flow."""


@dataclass(frozen=True)
class WeightBox:
    """A level-4 box: half a unit of demanded weight for one sink.

    ``upper``/``lower`` bound the weights of the pairs allowed to serve this
    box (inclusive); boxes of the same demand are ordered by decreasing weight.
    """

    demand_key: tuple[str, str]
    index: int
    upper: float
    lower: float

    def contains(self, weight: float, tol: float = 1e-12) -> bool:
        return self.lower - tol <= weight <= self.upper + tol


@dataclass
class GapNetwork:
    """The Figure-2 network as flat arc arrays (capacities doubled).

    Node :data:`SOURCE` is ``s`` and node :data:`SINK` is ``T``; node
    ``2 + i`` is ``reflectors[i]``, box and pair nodes follow.  Arc ``a`` runs
    ``tail[a] -> head[a]``.  ``pair[a]`` indexes :attr:`pairs` on
    ``reflector -> pair`` and ``pair -> box`` arcs, ``box[a]`` indexes
    :attr:`boxes` on ``pair -> box`` and ``box -> T`` arcs; both are -1
    elsewhere.
    """

    num_nodes: int
    tail: np.ndarray
    head: np.ndarray
    capacity: np.ndarray
    cost: np.ndarray
    pair: np.ndarray
    box: np.ndarray
    reflectors: list[str]
    pairs: list[AssignmentKey]
    boxes: list[WeightBox]

    @property
    def num_arcs(self) -> int:
        return len(self.tail)


@dataclass
class GapResult:
    """Outcome of the GAP stage.

    Attributes
    ----------
    assignments:
        The final 0/1 choice: set of (reflector, demand-key) pairs served.
    flow_value:
        Amount of (doubled) flow routed; equals ``boxes_total`` when every box
        demand was saturated.
    boxes_total, boxes_served:
        Number of boxes constructed / saturated -- the audit uses the gap
        between them to report unserved weight.
    cost:
        Cost of the extracted flow (assignment-cost scale, see module notes).
    flow:
        Integral per-arc flow on the :class:`GapNetwork`, or ``None`` when
        the assignments did not come from the Figure-2 network.
    """

    assignments: set[AssignmentKey]
    flow_value: float
    boxes_total: int
    boxes_served: int
    cost: float
    flow: np.ndarray | None = None


def build_boxes_for_demand(
    demand: Demand,
    entries: list[tuple[str, float, float]],
    keep_degenerate_box: bool = True,
) -> list[WeightBox]:
    """Construct the level-4 boxes for one demand.

    Parameters
    ----------
    demand:
        The (sink, stream) demand.
    entries:
        List of ``(reflector, weight, x_bar)`` with positive ``x_bar``.
    keep_degenerate_box:
        Keep one box when the paper's rule would produce none (see module
        notes).  Disable to follow the paper literally.

    Returns
    -------
    list[WeightBox]
        Boxes ordered by decreasing weight interval.
    """
    entries = [e for e in entries if e[2] > _MASS_TOL]
    if not entries:
        return []
    # Sort by decreasing weight (the paper's w_{1j} >= w_{2j} >= ...).
    entries.sort(key=lambda item: (-item[1], item[0]))
    total_mass = sum(x for _, _, x in entries)
    box_count = int(2.0 * total_mass + 1e-9)

    raw_boxes: list[tuple[float, float]] = []
    cumulative = 0.0
    current_upper = entries[0][1]
    target = 0.5
    for _, weight, mass in entries:
        cumulative += mass
        # Close as many half-unit boxes as this entry's mass completes.
        while cumulative >= target - 1e-12 and len(raw_boxes) < box_count:
            raw_boxes.append((current_upper, weight))
            current_upper = weight
            target += 0.5

    # Paper: "eliminate the last box for each sink".  With the degenerate-case
    # handling enabled we never drop below one box (and synthesise one spanning
    # the full weight range if the paper's rule would produce none at all).
    if keep_degenerate_box:
        if len(raw_boxes) >= 2:
            raw_boxes = raw_boxes[:-1]
        elif not raw_boxes and total_mass > _MASS_TOL:
            raw_boxes = [(entries[0][1], entries[-1][1])]
    else:
        raw_boxes = raw_boxes[:-1]

    return [
        WeightBox(demand_key=demand.key, index=idx, upper=hi, lower=lo)
        for idx, (hi, lo) in enumerate(raw_boxes)
    ]


def build_gap_network(
    problem: OverlayDesignProblem,
    rounded: RoundedSolution,
    keep_degenerate_box: bool = True,
) -> GapNetwork:
    """Build the (doubled-capacity) Figure-2 network from a rounded solution.

    Arcs come in the order ``s -> reflector`` for every reflector in the
    support of ``rounded.x``, then per demand its ``box -> T`` arcs followed,
    pair by pair, by ``reflector -> pair`` and that pair's ``pair -> box``
    arcs.
    """
    # Group surviving x_bar values by demand.
    by_demand: dict[tuple[str, str], list[tuple[str, float]]] = {}
    for (reflector, demand_key), value in rounded.x.items():
        if value > _MASS_TOL:
            by_demand.setdefault(demand_key, []).append((reflector, value))

    # Level 2: reflectors present in the support.
    reflector_node: dict[str, int] = {}
    for reflector, _demand_key in rounded.x:
        reflector_node.setdefault(reflector, 2 + len(reflector_node))
    tail = [SOURCE] * len(reflector_node)
    head = list(reflector_node.values())
    capacity = [2.0 * problem.fanout(reflector) for reflector in reflector_node]
    cost = [0.0] * len(reflector_node)
    pair_of = [-1] * len(reflector_node)
    box_of = [-1] * len(reflector_node)

    def add_arc(u: int, v: int, cap: float, unit_cost: float, p: int, b: int) -> None:
        tail.append(u)
        head.append(v)
        capacity.append(cap)
        cost.append(unit_cost)
        pair_of.append(p)
        box_of.append(b)

    index = problem_index(problem)
    rows = index.rows
    num_nodes = 2 + len(reflector_node)
    pairs: list[AssignmentKey] = []
    boxes: list[WeightBox] = []
    for demand_key, support in by_demand.items():
        code = index.demand_code[demand_key]
        positions = {reflector: index.position(code, reflector) for reflector, _value in support}
        entries = [
            (reflector, rows.weight[positions[reflector]], value) for reflector, value in support
        ]
        demand_boxes = build_boxes_for_demand(index.demands[code], entries, keep_degenerate_box)
        if not demand_boxes:
            continue
        # Level 4/5: box nodes and their arcs to the super sink (1/2 doubled).
        first_box_node, first_box = num_nodes, len(boxes)
        for offset in range(len(demand_boxes)):
            add_arc(first_box_node + offset, SINK, 1.0, 0.0, -1, first_box + offset)
        num_nodes += len(demand_boxes)
        boxes.extend(demand_boxes)
        # Level 3: (reflector, demand) pair nodes.
        for reflector, weight, _value in entries:
            pair_node, p = num_nodes, len(pairs)
            num_nodes += 1
            pairs.append((reflector, demand_key))
            unit_cost = rows.cost[positions[reflector]] / 2.0
            add_arc(reflector_node[reflector], pair_node, 2.0, unit_cost, p, -1)
            for offset, box in enumerate(demand_boxes):
                if box.contains(weight):
                    add_arc(pair_node, first_box_node + offset, 1.0, 0.0, p, first_box + offset)

    return GapNetwork(
        num_nodes=num_nodes,
        tail=np.asarray(tail, dtype=np.int64),
        head=np.asarray(head, dtype=np.int64),
        capacity=np.asarray(capacity, dtype=float),
        cost=np.asarray(cost, dtype=float),
        pair=np.asarray(pair_of, dtype=np.int64),
        box=np.asarray(box_of, dtype=np.int64),
        reflectors=list(reflector_node),
        pairs=pairs,
        boxes=boxes,
    )


def check_gap_flow(gap: GapNetwork, flow: np.ndarray) -> np.ndarray:
    """Return ``flow`` rounded to integers after checking it is a feasible flow.

    Raises :class:`GapFlowError` unless every arc value is within 1e-9 of an
    integer and of ``[0, capacity]``, and the rounded flow is conserved at
    every node other than ``s`` and ``T``.
    """
    flow = np.asarray(flow, dtype=float)
    if flow.shape != (gap.num_arcs,):
        raise GapFlowError(f"flow has shape {flow.shape}, expected ({gap.num_arcs},)")
    integral = np.rint(flow)
    fractional = np.flatnonzero(np.abs(flow - integral) > _FLOW_TOL)
    if fractional.size:
        arc = fractional[0]
        raise GapFlowError(f"arc {arc} carries non-integral flow {flow[arc]!r}")
    outside = np.flatnonzero((flow < -_FLOW_TOL) | (flow > gap.capacity + _FLOW_TOL))
    if outside.size:
        arc = outside[0]
        raise GapFlowError(f"arc {arc} carries {flow[arc]!r} outside [0, {gap.capacity[arc]!r}]")
    # Integer flows: the balances are exact.
    imbalance = np.bincount(gap.head, integral, gap.num_nodes) - np.bincount(
        gap.tail, integral, gap.num_nodes
    )
    imbalance[[SOURCE, SINK]] = 0.0
    if imbalance.any():
        raise GapFlowError(f"flow is not conserved at nodes {np.flatnonzero(imbalance).tolist()}")
    return integral


def _flow_lp(gap: GapNetwork) -> CompiledLP:
    """The node-arc LP whose optimum is the min-cost max flow of ``gap``."""
    arcs = np.arange(gap.num_arcs)
    out_rows = gap.tail >= 2
    in_rows = gap.head >= 2
    incidence = sparse.csr_matrix(
        (
            np.concatenate([-np.ones(out_rows.sum()), np.ones(in_rows.sum())]),
            (
                np.concatenate([gap.tail[out_rows], gap.head[in_rows]]) - 2,
                np.concatenate([arcs[out_rows], arcs[in_rows]]),
            ),
        ),
        shape=(gap.num_nodes - 2, gap.num_arcs),
    )
    reward = 1.0 + float(np.abs(gap.cost) @ gap.capacity)
    return CompiledLP(
        c=gap.cost - reward * (gap.head == SINK),
        A_ub=None,
        b_ub=None,
        A_eq=incidence,
        b_eq=np.zeros(gap.num_nodes - 2),
        bounds=np.column_stack([np.zeros(gap.num_arcs), gap.capacity]),
        objective_sign=1.0,
        objective_constant=0.0,
    )


def solve_gap_flow(gap: GapNetwork) -> np.ndarray:
    """Integral per-arc min-cost maximum ``s -> T`` flow of ``gap``, by one LP.

    Needs integer capacities and no arc into ``s`` or out of ``T``, as in
    Figure 2.  Raises :class:`GapFlowError` if the LP fails or its values do
    not pass :func:`check_gap_flow`.
    """
    solution = solve_compiled(_flow_lp(gap))
    if solution.status is not LPStatus.OPTIMAL:
        raise GapFlowError(f"GAP flow LP ended {solution.status}: {solution.message}")
    return check_gap_flow(gap, solution.values)


def solve_gap(problem: OverlayDesignProblem, gap: GapNetwork) -> GapResult:
    """Solve the network's min-cost max flow as one LP and read it back."""
    flow = solve_gap_flow(gap)

    used = flow > 0.5  # any positive (doubled) flow means the arc is used
    assignments: set[AssignmentKey] = set()
    cost = 0.0
    for p in gap.pair[used & (gap.pair >= 0) & (gap.box < 0)]:
        key = gap.pairs[p]
        assignments.add(key)
        reflector, (sink_name, stream) = key
        cost += problem.delivery_cost(reflector, sink_name, stream)

    into_sink = gap.head == SINK
    return GapResult(
        assignments=assignments,
        flow_value=float(flow[into_sink].sum()),
        boxes_total=len(gap.boxes),
        boxes_served=int(np.count_nonzero(used & into_sink)),
        cost=cost,
        flow=flow,
    )


def gap_round(
    problem: OverlayDesignProblem,
    rounded: RoundedSolution,
    keep_degenerate_box: bool = True,
) -> GapResult:
    """Convenience wrapper: build the Figure-2 network and solve it."""
    gap = build_gap_network(problem, rounded, keep_degenerate_box)
    return solve_gap(problem, gap)
