"""Tests for the registered solver-backend layer (repro.lp.backends)."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.lp import (
    CompiledLP,
    LPStatus,
    Sense,
    SolveOptions,
    SolverBackend,
    SolverError,
    SparseLPBuilder,
    available_backend_names,
    backend_names,
    get_backend,
    registered_backends,
    solve_compiled,
)

try:
    import gurobipy  # noqa: F401

    GUROBI_INSTALLED = True
except ImportError:
    GUROBI_INSTALLED = False


def _two_variable_lp(costs, row, rhs) -> CompiledLP:
    # min costs @ x  s.t.  row @ x >= rhs, 0 <= x <= 1.
    builder = SparseLPBuilder()
    x = builder.add_variables(2, lower=0.0, upper=1.0, name="x")
    builder.add_objective_terms(x, costs)
    builder.add_block("cover", [0, 0], x, row, [rhs], Sense.GE)
    return builder.build()[0]


def _small_lp() -> CompiledLP:
    # min x + 2y  s.t.  x + y >= 1, 0 <= x,y <= 1  ->  optimum 1 at (1, 0).
    return _two_variable_lp([1.0, 2.0], [1.0, 1.0], 1.0)


def _fractional_lp() -> CompiledLP:
    # min x + y  s.t.  2x + 2y >= 3, 0 <= x,y <= 1: LP optimum 1.5 is
    # fractional; the integer optimum is 2 (e.g. x = y = 1).
    return _two_variable_lp([1.0, 1.0], [2.0, 2.0], 3.0)


class TestRegistry:
    def test_standard_backends_registered(self):
        names = backend_names()
        assert names[:2] == ["highs", "highs-mip"]
        assert "gurobi" in names

    def test_scipy_backends_always_available(self):
        available = available_backend_names()
        assert "highs" in available
        assert "highs-mip" in available

    def test_registered_backends_implement_protocol(self):
        for backend in registered_backends():
            assert isinstance(backend, SolverBackend)
            assert isinstance(backend.available(), bool)

    def test_unknown_backend_raises_solver_error_naming_installed(self):
        with pytest.raises(SolverError, match="installed backends") as excinfo:
            get_backend("cplex")
        for name in available_backend_names():
            assert name in str(excinfo.value)

    def test_docs_name_only_registered_backends(self):
        """Registry-completeness guard: every backend named in docs/solvers.md
        exists in code, and every registered backend is documented."""
        doc = Path(__file__).resolve().parent.parent / "docs" / "solvers.md"
        table_names = re.findall(r"^\| `([a-z0-9-]+)` \|", doc.read_text(), re.MULTILINE)
        assert table_names, "docs/solvers.md backend table not found"
        assert set(table_names) == set(backend_names())


class TestHighsBackend:
    def test_solves_lp(self):
        solution = solve_compiled(_small_lp(), "highs")
        assert solution.is_optimal
        assert solution.backend == "highs"
        assert solution.objective == pytest.approx(1.0)

    def test_rejects_integrality(self):
        compiled = _fractional_lp()
        options = SolveOptions(integrality=np.ones(2, dtype=np.int8))
        with pytest.raises(SolverError, match="pure LPs only"):
            solve_compiled(compiled, "highs", options=options)

    def test_accepts_and_ignores_warm_start(self):
        cold = solve_compiled(_small_lp(), "highs")
        warm = solve_compiled(
            _small_lp(), "highs", options=SolveOptions(warm_start=np.array([0.0, 1.0]))
        )
        assert warm.objective == cold.objective
        assert np.array_equal(warm.values, cold.values)


class TestHighsMIPBackend:
    def test_solves_pure_lp_like_highs(self):
        lp = solve_compiled(_fractional_lp(), "highs")
        mip = solve_compiled(_fractional_lp(), "highs-mip")
        assert mip.is_optimal
        assert mip.backend == "highs-mip"
        assert mip.objective == pytest.approx(lp.objective)

    def test_integrality_closes_the_gap(self):
        options = SolveOptions(integrality=np.ones(2, dtype=np.int8))
        solution = solve_compiled(_fractional_lp(), "highs-mip", options=options)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(2.0)
        assert np.allclose(solution.values, np.round(solution.values))

    def test_surfaces_mip_diagnostics(self):
        options = SolveOptions(integrality=np.ones(2, dtype=np.int8))
        solution = solve_compiled(_fractional_lp(), "highs-mip", options=options)
        assert solution.mip_gap is not None and solution.mip_gap <= 1e-6
        assert solution.mip_dual_bound == pytest.approx(2.0)
        assert solution.mip_node_count is not None

    def test_mip_gap_limit_accepted(self):
        options = SolveOptions(
            integrality=np.ones(2, dtype=np.int8), mip_gap=0.5, time_limit=10.0
        )
        solution = solve_compiled(_fractional_lp(), "highs-mip", options=options)
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
        options = SolveOptions(integrality=np.ones(1, dtype=np.int8))
        solution = solve_compiled(compiled, "highs-mip", options=options)
        assert solution.objective == pytest.approx(3.0)

    def test_infeasible_returns_status(self):
        # x >= 2 with 0 <= x <= 1.
        solution = solve_compiled(_two_variable_lp([1.0, 0.0], [1.0, 0.0], 2.0), "highs-mip")
        assert solution.status is LPStatus.INFEASIBLE


class TestStatusMapping:
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
        solution = solve_compiled(compiled, "highs", stats=stats)
        assert solution.status is LPStatus.INFEASIBLE
        assert "(5) weight coverage" in solution.message
        assert "1 rows" in solution.message


class TestGurobiBackend:
    @pytest.mark.skipif(
        GUROBI_INSTALLED, reason="gurobipy installed; absence path not testable"
    )
    def test_reports_unavailable_and_raises_gracefully(self):
        backend = get_backend("gurobi")
        assert backend.available() is False
        assert "gurobi" not in available_backend_names()
        with pytest.raises(SolverError, match="gurobipy"):
            backend.solve(_small_lp(), SolveOptions())

    @pytest.mark.skipif(
        not GUROBI_INSTALLED, reason="gurobipy not installed (optional backend)"
    )
    def test_solves_lp_and_mip_when_installed(self):
        assert "gurobi" in available_backend_names()
        solution = solve_compiled(_small_lp(), "gurobi")
        assert solution.is_optimal
        assert solution.objective == pytest.approx(1.0)
        options = SolveOptions(
            integrality=np.ones(2, dtype=np.int8),
            warm_start=np.array([1.0, 1.0]),
        )
        mip = solve_compiled(_fractional_lp(), "gurobi", options=options)
        assert mip.is_optimal
        assert mip.objective == pytest.approx(2.0)


class TestParameterThreading:
    def test_design_parameters_validate_solver_backend(self):
        from repro.core.algorithm import DesignParameters

        with pytest.raises(ValueError, match="solver_backend"):
            DesignParameters(solver_backend="cplex")
        assert DesignParameters(solver_backend="highs-mip").solver_backend == "highs-mip"

    def test_solver_backend_round_trips_through_serde(self):
        from repro.api.types import parameters_from_dict, parameters_to_dict
        from repro.core.algorithm import DesignParameters

        parameters = DesignParameters(solver_backend="highs-mip")
        document = parameters_to_dict(parameters)
        assert document["solver_backend"] == "highs-mip"
        assert parameters_from_dict(document).solver_backend == "highs-mip"
        assert parameters_from_dict({}).solver_backend == "highs"

    def test_formulation_cache_key_separates_solver_backends(self):
        from repro.core.algorithm import DesignParameters
        from repro.serve.cache import formulation_key

        base = formulation_key("digest", DesignParameters())
        mip = formulation_key("digest", DesignParameters(solver_backend="highs-mip"))
        assert base != mip

    def test_pipeline_solves_on_requested_backend(self):
        from repro.api import DesignRequest, get_designer
        from repro.core.algorithm import DesignParameters
        from repro.workloads.tiny import build_tiny_problem

        problem = build_tiny_problem()
        default = get_designer("spaa03").design(
            DesignRequest(problem=problem, parameters=DesignParameters(seed=7))
        )
        via_mip = get_designer("spaa03").design(
            DesignRequest(
                problem=problem,
                parameters=DesignParameters(seed=7, solver_backend="highs-mip"),
            )
        )
        assert via_mip.metadata["solver_backend"] == "highs-mip"
        assert default.metadata["solver_backend"] == "highs"
        assert via_mip.lower_bound == pytest.approx(default.lower_bound)
        assert via_mip.solution.total_cost() == pytest.approx(default.solution.total_cost())

    def test_sharded_requests_inherit_solver_backend(self):
        from repro.api.types import DesignRequest, parameters_from_dict, parameters_to_dict
        from repro.core.algorithm import DesignParameters
        from repro.workloads.tiny import build_tiny_problem

        # The sharded pipeline rebuilds per-shard parameters through the
        # serde layer; the round trip preserving the field is exactly what
        # threads the backend choice into every shard.
        request = DesignRequest(
            problem=build_tiny_problem(),
            parameters=DesignParameters(solver_backend="highs-mip"),
        )
        document = parameters_to_dict(request.parameters)
        assert parameters_from_dict(dict(document)).solver_backend == "highs-mip"
