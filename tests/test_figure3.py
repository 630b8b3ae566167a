"""Reproduction of the paper's Figure 3: the integrality gap with set constraints.

The example: a small flow network where all edge capacities are as drawn and,
additionally, the *set* of edges {a->b, p->q} has a joint capacity of 3.  The
maximum integral flow is 3, but a fractional flow of 3.5 exists (send 2 on
s->a and 1.5 on s->p, split at a: 0.5 to q, 1.5 to b).  This is why the
Section-6 extensions cannot be rounded through plain min-cost flow and need
the Srinivasan--Teo path formulation instead.

We reproduce the gap exactly using the LP substrate over the path
formulation: relaxing integrality gives 3.5, forcing integral flows caps at 3.
The corresponding benchmark is ``benchmarks/bench_fig3_integrality_gap.py``.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from repro.lp import Objective, SparseLPBuilder, solve_compiled

# The network of Figure 3: s -> {a, p}; a -> {b, q}; p -> q; {b, q} -> t.
EDGES = {
    ("s", "a"): 2.0,
    ("s", "p"): 2.0,
    ("a", "b"): 2.0,
    ("a", "q"): 1.0,
    ("p", "q"): 2.0,
    ("b", "t"): 2.0,
    ("q", "t"): 2.0,
}
#: The entangled set constraint: edges {a->b, p->q} jointly carry at most 3.
ENTANGLED = (("a", "b"), ("p", "q"))
ENTANGLED_CAPACITY = 3.0
#: The three s->t paths of the example.
PATHS = (
    (("s", "a"), ("a", "b"), ("b", "t")),
    (("s", "a"), ("a", "q"), ("q", "t")),
    (("s", "p"), ("p", "q"), ("q", "t")),
)


def _solve_max_flow(integral: bool) -> float:
    """Maximise total path flow subject to edge + entangled-set capacities.

    With three paths and tiny capacities the integral optimum can be found by
    brute force; the fractional optimum comes from the LP.
    """
    if integral:
        best = 0.0
        # Integral flows: integer flow on every path (capacities are <= 3).
        for assignment in product(range(4), repeat=len(PATHS)):
            flows = [float(v) for v in assignment]
            if _feasible(flows):
                best = max(best, sum(flows))
        return best
    solution = _solve_path_lp(with_entangled=True)
    assert solution.is_optimal
    return solution.objective


def _solve_path_lp(with_entangled: bool):
    """Maximum total path flow under the edge (and entangled-set) capacities."""
    builder = SparseLPBuilder(objective_sense=Objective.MAXIMIZE)
    path_vars = builder.add_variables(len(PATHS), 0.0, np.inf, name="path")
    builder.add_objective_terms(path_vars, np.ones(len(PATHS)))
    rows = [((edge,), capacity) for edge, capacity in EDGES.items()]
    if with_entangled:
        rows.append((ENTANGLED, ENTANGLED_CAPACITY))
    for members, capacity in rows:
        # A path counts against a row if it uses any of the row's edges.
        users = [i for i, path in enumerate(PATHS) if any(edge in path for edge in members)]
        ones = np.ones(len(users))
        builder.add_block("capacity", np.zeros_like(ones), path_vars[users], ones, [capacity])
    return solve_compiled(builder.build()[0])


def _feasible(path_flows: list[float]) -> bool:
    for edge, capacity in EDGES.items():
        used = sum(
            flow for flow, path in zip(path_flows, PATHS) if edge in path
        )
        if used > capacity + 1e-9:
            return False
    entangled_used = sum(
        flow
        for flow, path in zip(path_flows, PATHS)
        if any(edge in path for edge in ENTANGLED)
    )
    return entangled_used <= ENTANGLED_CAPACITY + 1e-9


class TestFigure3:
    def test_fractional_max_flow_is_three_point_five(self):
        assert _solve_max_flow(integral=False) == pytest.approx(3.5, abs=1e-6)

    def test_integral_max_flow_is_three(self):
        assert _solve_max_flow(integral=True) == pytest.approx(3.0)

    def test_gap_exists(self):
        fractional = _solve_max_flow(integral=False)
        integral = _solve_max_flow(integral=True)
        assert fractional > integral + 0.4

    def test_paper_fractional_witness_is_feasible(self):
        """The specific fractional flow described in the paper (2 + 1.5, split 0.5/1.5)."""
        # Path flows: s-a-b-t = 1.5, s-a-q-t = 0.5, s-p-q-t = 1.5.
        witness = [1.5, 0.5, 1.5]
        assert _feasible(witness)
        assert sum(witness) == pytest.approx(3.5)

    def test_without_entangled_constraint_flow_is_four(self):
        """Dropping the set constraint removes the gap (sanity check)."""
        solution = _solve_path_lp(with_entangled=False)
        assert solution.objective == pytest.approx(4.0, abs=1e-6)
