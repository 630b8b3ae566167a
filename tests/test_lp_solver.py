"""Tests for ``solve_compiled``, the one HiGHS call every LP and MIP goes through."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize._highspy import _core

from repro.lp import (
    CompiledLP,
    LPStatus,
    Objective,
    Sense,
    SolverError,
    SparseLPBuilder,
    solve_compiled,
)
from repro.lp.solver import LARGE_MATRIX_VALUE


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


def _two_variable_lp(costs, row, rhs) -> CompiledLP:
    # min costs @ x  s.t.  row @ x >= rhs, 0 <= x <= 1.
    builder = SparseLPBuilder()
    x = builder.add_variables(2, lower=0.0, upper=1.0, name="x")
    builder.add_objective_terms(x, costs)
    builder.add_block("cover", [0, 0], x, row, [rhs], Sense.GE)
    return builder.build()[0]


def _fractional_lp() -> CompiledLP:
    # min x + y  s.t.  2x + 2y >= 3, 0 <= x,y <= 1: LP optimum 1.5 is
    # fractional; the integer optimum is 2 (e.g. x = y = 1).
    return _two_variable_lp([1.0, 1.0], [2.0, 2.0], 3.0)


BINARY = np.ones(2, dtype=np.int8)


class TestIntegrality:
    def test_lp_solve_reports_no_mip_diagnostics(self):
        # min x + 2y  s.t.  x + y >= 1, 0 <= x,y <= 1  ->  optimum 1 at (1, 0).
        solution = solve_compiled(_two_variable_lp([1.0, 2.0], [1.0, 1.0], 1.0))
        assert solution.is_optimal
        assert solution.objective == pytest.approx(1.0)
        assert solution.mip_gap is solution.mip_dual_bound is solution.mip_node_count is None

    def test_integrality_closes_the_gap(self):
        assert solve_compiled(_fractional_lp()).objective == pytest.approx(1.5)
        solution = solve_compiled(_fractional_lp(), integrality=BINARY)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(2.0)
        assert np.allclose(solution.values, np.round(solution.values))

    def test_surfaces_mip_diagnostics(self):
        solution = solve_compiled(_fractional_lp(), integrality=BINARY)
        assert solution.mip_gap is not None and solution.mip_gap <= 1e-6
        assert solution.mip_dual_bound == pytest.approx(2.0)
        assert solution.mip_node_count is not None

    def test_mip_gap_and_time_limits_accepted(self):
        solution = solve_compiled(
            _fractional_lp(), integrality=BINARY, mip_gap=0.5, time_limit=10.0
        )
        assert solution.has_solution
        assert solution.objective == pytest.approx(2.0)

    def test_unbounded_above_columns(self):
        # min x  s.t.  x >= 2.5, x integer in [0, inf): the upper bound is np.inf.
        builder = SparseLPBuilder()
        x = builder.add_variables(1, lower=0.0, upper=np.inf)
        builder.add_objective_terms(x, [1.0])
        builder.add_block("floor", [0], x, [1.0], [2.5], Sense.GE)
        compiled = builder.build()[0]
        assert compiled.bounds.tolist() == [[0.0, np.inf]]
        solution = solve_compiled(compiled, integrality=np.ones(1, dtype=np.int8))
        assert solution.objective == pytest.approx(3.0)

    def test_infeasible_mip_is_returned(self):
        # x >= 2 with 0 <= x <= 1.
        infeasible = _two_variable_lp([1.0, 0.0], [1.0, 0.0], 2.0)
        solution = solve_compiled(infeasible, integrality=BINARY)
        assert solution.status is LPStatus.INFEASIBLE


class TestFailureSemantics:
    def test_infeasible_message_names_constraint_families(self):
        builder = SparseLPBuilder(name="infeasible-lp")
        x = builder.add_variables(1, lower=0.0, upper=1.0, name="x")
        builder.add_objective_terms(x, np.ones(1))
        builder.add_block(
            "(5) weight coverage",
            rows=np.array([0]),
            cols=x,
            values=np.array([1.0]),
            rhs=np.array([2.0]),
            sense=Sense.GE,
        )
        compiled, stats = builder.build()
        solution = solve_compiled(compiled, stats=stats)
        assert solution.status is LPStatus.INFEASIBLE
        assert "(5) weight coverage" in solution.message
        assert "1 rows" in solution.message

    def test_limit_stop_on_a_pure_lp_raises(self):
        with pytest.raises(SolverError, match="Time limit") as excinfo:
            solve_compiled(_fractional_lp(), time_limit=0.0)
        assert excinfo.value.status_code == 1

    def test_mip_limit_stop_without_an_incumbent_raises(self):
        from repro.core.formulation import build_sparse_formulation
        from repro.workloads import RandomInstanceConfig, random_problem

        problem = random_problem(
            RandomInstanceConfig(num_streams=2, num_reflectors=10, num_sinks=20), rng=42
        )
        compiled = build_sparse_formulation(problem).compiled
        integrality = np.ones(len(compiled.c), dtype=np.int8)
        with pytest.raises(SolverError, match="Time limit") as excinfo:
            solve_compiled(compiled, integrality=integrality, time_limit=0.0)
        assert excinfo.value.status_code == 1

    def test_model_error_raises(self):
        # A matrix entry of 1e30 is a HiGHS model error, not infeasibility.
        builder = SparseLPBuilder()
        x = builder.add_variables(1, lower=0.0, upper=1.0)
        builder.add_objective_terms(x, [1.0])
        builder.add_block("huge", [0], x, [1e30], [1.0], Sense.LE)
        with pytest.raises(SolverError, match="Model error") as excinfo:
            solve_compiled(builder.build()[0])
        assert excinfo.value.status_code == 4


class TestInteriorPoint:
    def test_interior_point_ends_at_the_vertex(self):
        # min x + 2y  s.t.  2x + 2y >= 3, 0 <= x,y <= 1: the unique optimum is
        # the fractional vertex (1, 0.5), which crossover reaches exactly.
        lp = _two_variable_lp([1.0, 2.0], [2.0, 2.0], 3.0)
        solution = solve_compiled(lp, interior_point=True)
        assert solution.is_optimal
        assert solution.values.tolist() == pytest.approx([1.0, 0.5], abs=1e-12)
        assert solution.objective == pytest.approx(2.0)

    def test_interior_point_is_ignored_for_a_mip(self):
        solution = solve_compiled(_fractional_lp(), integrality=BINARY, interior_point=True)
        assert solution.objective == pytest.approx(2.0)
        assert solution.mip_node_count is not None

    @pytest.mark.parametrize("interior_point", [False, True])
    def test_infeasible_is_returned_by_either_method(self, interior_point):
        infeasible = _two_variable_lp([1.0, 0.0], [1.0, 0.0], 2.0)
        solution = solve_compiled(infeasible, interior_point=interior_point)
        assert solution.status is LPStatus.INFEASIBLE


class TestPrivateHighsApi:
    """Every member of scipy's private ``_highspy._core`` that ``solve_compiled`` uses.

    The module is not public API, so a scipy release that renames or drops
    one of these fails here rather than inside a design.
    """

    def test_module_members(self):
        for name in ("_Highs", "HighsLp", "HighsStatus", "HighsModelStatus", "HighsVarType"):
            assert hasattr(_core, name), name
        assert _core.kHighsInf == np.inf
        assert hasattr(_core.MatrixFormat, "kColwise")
        assert hasattr(_core.HighsStatus, "kError")
        for status in (
            "kOptimal",
            "kInfeasible",
            "kUnbounded",
            "kTimeLimit",
            "kIterationLimit",
            "kModelError",
        ):
            assert hasattr(_core.HighsModelStatus, status), status
        assert int(_core.HighsVarType(1)) == 1

    def test_model_object_members(self):
        highs = _core._Highs()
        for method in (
            "setOptionValue",
            "getOptionValue",
            "passModel",
            "run",
            "getModelStatus",
            "getInfo",
            "getSolution",
            "modelStatusToString",
        ):
            assert callable(getattr(highs, method)), method
        lp = _core.HighsLp()
        for field in (
            "num_col_",
            "num_row_",
            "col_cost_",
            "col_lower_",
            "col_upper_",
            "row_lower_",
            "row_upper_",
            "integrality_",
        ):
            assert hasattr(lp, field), field
        for field in ("format_", "num_col_", "num_row_", "start_", "index_", "value_"):
            assert hasattr(lp.a_matrix_, field), field
        info = highs.getInfo()
        for field in ("objective_function_value", "mip_gap", "mip_dual_bound", "mip_node_count"):
            assert hasattr(info, field), field
        assert hasattr(highs.getSolution(), "col_value")

    def test_options(self):
        highs = _core._Highs()
        # Crossover on by default keeps an interior-point answer a vertex.
        assert highs.getOptionValue("run_crossover")[1] == "on"
        assert highs.getOptionValue("large_matrix_value")[1] == LARGE_MATRIX_VALUE
        ok = _core.HighsStatus.kOk
        assert highs.setOptionValue("solver", "ipm") == ok
        assert highs.getOptionValue("solver")[1] == "ipm"
        assert highs.setOptionValue("output_flag", False) == ok
        assert highs.setOptionValue("time_limit", 1.0) == ok
        assert highs.setOptionValue("mip_rel_gap", 0.5) == ok


def test_concurrent_solves_match_sequential_ones():
    # Each call owns its HiGHS object, so two worker threads (as in
    # DesignService) solving at once get the bits a lone caller gets.
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.formulation import build_sparse_formulation
    from repro.workloads import AsGeoConfig, generate_as_geo_problem

    problems = [generate_as_geo_problem(AsGeoConfig(num_sinks=120), rng=s)[0] for s in range(2)]
    jobs = [
        (build_sparse_formulation(problem).compiled, method)
        for problem in problems
        for method in (False, True)
    ]
    expected = [solve_compiled(lp, interior_point=method).values for lp, method in jobs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(solve_compiled, lp, interior_point=method) for lp, method in jobs]
        got = [future.result(timeout=60).values for future in futures]
    assert all(np.array_equal(a, b) for a, b in zip(expected, got))
