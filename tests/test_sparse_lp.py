"""Tests for the sparse LP builder (repro.lp.sparse) and the Section-2 formulation.

The family-by-family check of the formulation against a row-by-row oracle
lives in ``test_formulation_differential.py``; this file covers the builder
itself, the formulation's objective and failure handling, and the assembly
statistics the pipeline reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithm import DesignParameters, design_overlay
from repro.core.formulation import build_sparse_formulation
from repro.core.problem import OverlayDesignProblem
from repro.lp import LPStatus, Objective, Sense, SparseLPBuilder, VariableArena, solve_compiled


class TestVariableArena:
    def test_blocks_hand_out_contiguous_indices(self):
        arena = VariableArena()
        a = arena.add_block(3, name="a")
        b = arena.add_block(2, lower=1.0, upper=np.inf, name="b")
        assert a.tolist() == [0, 1, 2]
        assert b.tolist() == [3, 4]
        assert arena.size == 5
        bounds = arena.bounds_array()
        assert bounds.shape == (5, 2)
        assert bounds[0].tolist() == [0.0, 1.0]
        assert bounds[3, 0] == 1.0 and np.isinf(bounds[3, 1])

    def test_bad_bounds_rejected(self):
        arena = VariableArena()
        with pytest.raises(ValueError):
            arena.add_block(2, lower=1.0, upper=0.0)
        with pytest.raises(ValueError):
            arena.add_block(-1)


class TestSparseLPBuilder:
    def build_small(self):
        # min x0 + 2 x1  s.t.  x0 + x1 >= 1,  x1 <= 0.4
        builder = SparseLPBuilder(name="small")
        x = builder.add_variables(2, 0.0, 1.0, name="x")
        builder.add_objective_terms(x, np.array([1.0, 2.0]))
        builder.add_block("cover", [0, 0], x, [1.0, 1.0], [1.0], Sense.GE)
        builder.add_block("cap", [0], x[1:], [1.0], [0.4], Sense.LE)
        return builder

    def test_build_and_solve(self):
        compiled, stats = self.build_small().build()
        assert stats.num_variables == 2
        assert stats.num_inequality_rows == 2
        assert stats.num_equality_rows == 0
        assert stats.num_nonzeros == 3
        assert [b.name for b in stats.blocks] == ["cover", "cap"]
        assert stats.build_seconds >= stats.compile_seconds >= 0.0
        solution = solve_compiled(compiled)
        assert solution.status is LPStatus.OPTIMAL
        # Optimum puts all mass on the cheap variable: x = (1, 0).
        assert solution.objective == pytest.approx(1.0)
        assert solution.values.tolist() == pytest.approx([1.0, 0.0])

    def test_ge_blocks_are_negated_into_ub_form(self):
        compiled, _ = self.build_small().build()
        # Row 0 is the GE block: stored as -x0 - x1 <= -1.
        dense = compiled.A_ub.toarray()
        assert dense[0].tolist() == [-1.0, -1.0]
        assert compiled.b_ub[0] == -1.0

    def test_equality_blocks_go_to_a_eq(self):
        builder = SparseLPBuilder(name="eq")
        x = builder.add_variables(2, 0.0, np.inf)
        builder.add_objective_terms(x, np.array([1.0, 1.0]))
        builder.add_block("sum", [0, 0], x, [1.0, 1.0], [3.0], Sense.EQ)
        compiled, stats = builder.build()
        assert stats.num_equality_rows == 1 and stats.num_inequality_rows == 0
        solution = solve_compiled(compiled)
        assert solution.objective == pytest.approx(3.0)

    def test_maximization_sign_flip(self):
        builder = SparseLPBuilder(name="max", objective_sense=Objective.MAXIMIZE)
        x = builder.add_variables(1, 0.0, 2.0)
        builder.add_objective_terms(x, np.array([3.0]))
        compiled, _ = builder.build()
        solution = solve_compiled(compiled)
        assert solution.objective == pytest.approx(6.0)

    def test_duplicate_objective_terms_accumulate(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(1, 0.0, 1.0)
        builder.add_objective_terms(np.array([0, 0]), np.array([1.0, 2.0]))
        compiled, _ = builder.build()
        assert compiled.c.tolist() == [3.0]

    def test_mismatched_arrays_rejected(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(2)
        with pytest.raises(ValueError):
            builder.add_objective_terms(x, np.array([1.0]))
        with pytest.raises(ValueError):
            builder.add_block("bad", [0], x, [1.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            builder.add_block("bad rows", [5], x[:1], [1.0], [1.0])
        with pytest.raises(ValueError):
            builder.add_block("bad cols", [0], [99], [1.0], [1.0])
        with pytest.raises(ValueError, match="no rows"):
            builder.add_block("no rows", [0, 0], x, [1.0, 1.0], [])

    def test_bounds_are_an_n_by_2_float_array(self):
        builder = SparseLPBuilder()
        builder.add_variables(1, 0.0, 1.0)
        builder.add_variables(2, lower=[0.0, -1.0], upper=np.inf)
        compiled, _ = builder.build()
        assert compiled.bounds.dtype == float
        assert compiled.bounds.tolist() == [[0.0, 1.0], [0.0, np.inf], [-1.0, np.inf]]

    def test_blocks_stack_in_emission_order(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(3, 0.0, np.inf)
        builder.add_block("first", [0, 1], x[:2], [1.0, 1.0], [4.0, 5.0], Sense.LE)
        builder.add_block("fixed", [0], x[2:], [1.0], [2.0], Sense.EQ)
        builder.add_block("floor", [0], x[1:2], [3.0], [1.0], Sense.GE)
        compiled, stats = builder.build()
        # LE and GE blocks share A_ub in emission order; EQ blocks go to A_eq.
        assert compiled.A_ub.toarray().tolist() == [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -3.0, 0.0],
        ]
        assert compiled.b_ub.tolist() == [4.0, 5.0, -1.0]
        assert compiled.A_eq.toarray().tolist() == [[0.0, 0.0, 1.0]]
        assert compiled.b_eq.tolist() == [2.0]
        assert [(b.name, b.rows, b.sense) for b in stats.blocks] == [
            ("first", 2, Sense.LE),
            ("fixed", 1, Sense.EQ),
            ("floor", 1, Sense.GE),
        ]

    def test_sparse_pattern(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(50)
        builder.add_block("three", [0, 0, 0], x[:3], np.ones(3), [1.0])
        compiled, stats = builder.build()
        assert compiled.A_ub.nnz == 3
        assert compiled.A_ub.shape == (1, 50)
        assert np.count_nonzero(compiled.c) == 0
        assert stats.num_nonzeros == 3

    def test_objective_constant_is_kept(self):
        builder = SparseLPBuilder()
        x = builder.add_variables(1)
        builder.add_objective_terms(x, [1.0])
        builder.add_objective_constant(10.0)
        builder.add_objective_constant(0.5)
        compiled, _ = builder.build()
        assert compiled.objective_constant == 10.5

    def test_no_constraints_compile_to_none(self):
        builder = SparseLPBuilder()
        builder.add_variables(2)
        compiled, stats = builder.build()
        assert compiled.A_ub is None and compiled.b_ub is None
        assert compiled.A_eq is None and compiled.b_eq is None
        assert stats.num_constraints == 0 and stats.blocks == []

    def test_empty_block_is_ignored(self):
        builder = SparseLPBuilder()
        builder.add_variables(1)
        builder.add_block("empty", [], [], [], [])
        compiled, stats = builder.build()
        assert compiled.A_ub is None
        assert stats.num_constraints == 0


class TestSparseFormulation:
    def test_stream_cost_overrides_in_objective(self):
        problem = OverlayDesignProblem()
        problem.add_stream("hd")
        problem.add_stream("sd")
        problem.add_reflector("r", cost=1.0, fanout=4)
        problem.add_sink("d")
        problem.add_stream_edge("hd", "r", 0.01, 1.0)
        problem.add_stream_edge("sd", "r", 0.01, 1.0)
        problem.add_delivery_edge("r", "d", 0.05, cost=1.0, stream_costs={"hd": 3.0})
        problem.add_demand("d", "hd", 0.9)
        problem.add_demand("d", "sd", 0.9)
        sparse = build_sparse_formulation(problem)
        hd_index = len(sparse.z_keys) + len(sparse.y_keys) + sparse.x_keys.index(
            ("r", ("d", "hd"))
        )
        sd_index = len(sparse.z_keys) + len(sparse.y_keys) + sparse.x_keys.index(
            ("r", ("d", "sd"))
        )
        assert sparse.compiled.c[hd_index] == pytest.approx(3.0)
        assert sparse.compiled.c[sd_index] == pytest.approx(1.0)

    def test_invalid_problem_rejected(self):
        with pytest.raises(ValueError):
            build_sparse_formulation(OverlayDesignProblem())

    def test_infeasible_extraction_raises(self):
        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("r", cost=1.0, fanout=1)
        problem.add_sink("d")
        problem.add_stream_edge("s", "r", 0.4, 1.0)
        problem.add_delivery_edge("r", "d", 0.4, 1.0)
        problem.add_demand("d", "s", success_threshold=0.9999)
        sparse = build_sparse_formulation(problem)
        lp_solution = sparse.solve()
        assert not lp_solution.is_optimal
        with pytest.raises(ValueError):
            sparse.fractional_solution(lp_solution)


class TestPipelineIntegration:
    def test_report_carries_build_stats(self, tiny_problem):
        report = design_overlay(tiny_problem, DesignParameters(seed=0))
        assert report.lp_build_stats.num_variables == report.formulation_size[0]
        assert report.lp_build_stats.num_constraints == report.formulation_size[1]
        assert report.lp_build_stats.num_nonzeros > 0
