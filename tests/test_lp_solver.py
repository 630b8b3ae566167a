"""Tests for solving built LPs through the scipy-backed default backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp import LPStatus, Objective, Sense, SparseLPBuilder, solve_compiled


def add_row(builder: SparseLPBuilder, coeffs: dict[int, float], rhs: float, sense: Sense) -> None:
    """Add the single constraint ``sum coeffs[col] * x[col]  (sense)  rhs``."""
    builder.add_block(
        "row", np.zeros(len(coeffs)), list(coeffs), list(coeffs.values()), [rhs], sense
    )


class TestSolveBasics:
    def test_simple_minimization(self):
        builder = SparseLPBuilder()
        x, y = builder.add_variables(2, 0.0, np.inf)
        add_row(builder, {x: 1.0, y: 1.0}, 2.0, Sense.GE)
        builder.add_objective_terms([x, y], [3.0, 1.0])
        solution = solve_compiled(builder.build()[0])
        assert solution.is_optimal
        # Cheapest way to reach 2 units is all y.
        assert solution.values[y] == pytest.approx(2.0, abs=1e-6)
        assert solution.values[x] == pytest.approx(0.0, abs=1e-6)
        assert solution.objective == pytest.approx(2.0, abs=1e-6)

    def test_simple_maximization(self):
        builder = SparseLPBuilder(objective_sense=Objective.MAXIMIZE)
        x, y = builder.add_variables(2, 0.0, [4.0, 3.0])
        add_row(builder, {x: 1.0, y: 1.0}, 5.0, Sense.LE)
        builder.add_objective_terms([x, y], [1.0, 2.0])
        solution = solve_compiled(builder.build()[0])
        assert solution.is_optimal
        assert solution.objective == pytest.approx(8.0, abs=1e-6)
        assert solution.values[y] == pytest.approx(3.0, abs=1e-6)

    def test_equality_constraints(self):
        builder = SparseLPBuilder()
        x, y = builder.add_variables(2, 0.0, np.inf)
        add_row(builder, {x: 1.0, y: 1.0}, 1.0, Sense.EQ)
        builder.add_objective_terms([x, y], [1.0, 2.0])
        solution = solve_compiled(builder.build()[0])
        assert solution.is_optimal
        assert solution.values[x] == pytest.approx(1.0, abs=1e-6)

    def test_objective_constant_carried_through(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(1, 1.0, np.inf)
        builder.add_objective_terms(x, [1.0])
        builder.add_objective_constant(100.0)
        solution = solve_compiled(builder.build()[0])
        assert solution.objective == pytest.approx(101.0, abs=1e-6)

    def test_empty_model(self):
        solution = solve_compiled(SparseLPBuilder().build()[0])
        assert solution.is_optimal
        assert solution.objective == 0.0

    def test_keyed_columns_read_back(self):
        builder = SparseLPBuilder()
        keys = [("a", 1), ("b", 2)]
        columns = dict(zip(keys, builder.add_variables(len(keys), 0.0, np.inf)))
        add_row(builder, {columns[("a", 1)]: 1.0}, 1.5, Sense.GE)
        builder.add_objective_terms(list(columns.values()), np.ones(len(keys)))
        solution = solve_compiled(builder.build()[0])
        mapping = {key: solution.values[column] for key, column in columns.items()}
        assert mapping[("a", 1)] == pytest.approx(1.5, abs=1e-6)
        assert mapping[("b", 2)] == pytest.approx(0.0, abs=1e-6)


class TestSolveFailures:
    def test_infeasible(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(1, 0.0, 1.0)
        add_row(builder, {int(x[0]): 1.0}, 2.0, Sense.GE)
        builder.add_objective_terms(x, [1.0])
        solution = solve_compiled(builder.build()[0])
        assert solution.status is LPStatus.INFEASIBLE
        assert not solution.is_optimal

    def test_unbounded(self):
        builder = SparseLPBuilder(objective_sense=Objective.MAXIMIZE)
        x = builder.add_variables(1, 0.0, np.inf)
        builder.add_objective_terms(x, [1.0])
        solution = solve_compiled(builder.build()[0])
        assert solution.status in (LPStatus.UNBOUNDED, LPStatus.INFEASIBLE)
        assert not solution.is_optimal


class TestAgainstKnownOptima:
    def test_transportation_problem(self):
        """2 plants x 3 markets transportation LP with a hand-checked optimum."""
        supply = {"p1": 20.0, "p2": 30.0}
        demand = {"m1": 10.0, "m2": 25.0, "m3": 15.0}
        cost = {
            ("p1", "m1"): 2.0,
            ("p1", "m2"): 4.0,
            ("p1", "m3"): 5.0,
            ("p2", "m1"): 3.0,
            ("p2", "m2"): 1.0,
            ("p2", "m3"): 7.0,
        }
        builder = SparseLPBuilder()
        ship = dict(zip(cost, builder.add_variables(len(cost), 0.0, np.inf, name="ship")))
        for plant, cap in supply.items():
            add_row(builder, {ship[key]: 1.0 for key in cost if key[0] == plant}, cap, Sense.LE)
        for market, need in demand.items():
            add_row(builder, {ship[key]: 1.0 for key in cost if key[1] == market}, need, Sense.GE)
        builder.add_objective_terms(list(ship.values()), list(cost.values()))
        solution = solve_compiled(builder.build()[0])
        assert solution.is_optimal
        # Optimal plan: p1->m1 5, p1->m3 15, p2->m1 5, p2->m2 25 (cost 125);
        # keeping the expensive p2->m3 lane empty is what makes it optimal.
        expected = 5 * 2.0 + 15 * 5.0 + 5 * 3.0 + 25 * 1.0
        assert solution.objective == pytest.approx(expected, abs=1e-6)
