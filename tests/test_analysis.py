"""Tests for the analysis helpers (repro.analysis)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    audit_solution,
    check_paper_guarantees,
    compare_designs,
    cost_breakdown,
    cost_ratio,
    format_table,
    reliability_metrics,
)
from repro.api import DesignRequest, run_request
from repro.core.algorithm import DesignParameters
from repro.core.solution import OverlaySolution


def greedy_solution(problem):
    return run_request(DesignRequest(problem=problem, strategy="greedy")).solution


class TestAudit:
    def test_audit_of_full_greedy_solution(self, tiny_problem):
        solution = greedy_solution(tiny_problem)
        audit = audit_solution(tiny_problem, solution)
        assert audit.min_weight_fraction >= 1.0 - 1e-9
        assert audit.max_fanout_factor <= 1.0 + 1e-9
        assert audit.unserved_demands == 0
        assert audit.color_violations == 0
        summary = audit.summary()
        assert set(summary) >= {"min_weight_fraction", "max_fanout_factor", "unserved_demands"}

    def test_audit_detects_shortfall_and_overload(self, tiny_problem):
        overload = OverlaySolution.from_assignments(
            tiny_problem,
            {("d1", "s"): ["r2", "r3"], ("d2", "s"): ["r2", "r3"]},
        )
        audit = audit_solution(tiny_problem, overload)
        assert audit.fanout_factor["r2"] == pytest.approx(1.0)
        empty = OverlaySolution.from_assignments(tiny_problem, {})
        audit_empty = audit_solution(tiny_problem, empty)
        assert audit_empty.unserved_demands == 2
        assert audit_empty.min_weight_fraction == 0.0

    def test_arc_capacity_factor_measured(self):
        from repro.core.problem import OverlayDesignProblem

        problem = OverlayDesignProblem()
        problem.add_stream("a")
        problem.add_stream("b")
        problem.add_reflector("r", cost=1.0, fanout=4)
        problem.add_sink("d")
        problem.add_stream_edge("a", "r", 0.01, 0.1)
        problem.add_stream_edge("b", "r", 0.01, 0.1)
        problem.add_delivery_edge("r", "d", 0.02, 0.1, capacity=1.0)
        problem.add_demand("d", "a", 0.9)
        problem.add_demand("d", "b", 0.9)
        solution = OverlaySolution.from_assignments(
            problem, {("d", "a"): ["r"], ("d", "b"): ["r"]}
        )
        audit = audit_solution(problem, solution)
        assert audit.max_arc_capacity_factor == pytest.approx(2.0)

    def test_guarantee_checks_pass_for_paper_run(self, small_random_problem):
        result = run_request(DesignRequest(small_random_problem, DesignParameters(seed=0)))
        checks = check_paper_guarantees(small_random_problem, result)
        names = {check.name for check in checks}
        assert {"weight >= W/4", "fanout <= 4F", "cost <= 2 c log n * OPT_LP"} <= names
        assert all(check.holds for check in checks)

    def test_guarantee_checks_read_the_results_own_audit(self, small_random_problem, monkeypatch):
        import repro.analysis.audit as audit_module

        result = run_request(
            DesignRequest(small_random_problem, DesignParameters(seed=2, repair_shortfall=True))
        )
        audit = audit_solution(small_random_problem, result.solution)
        expected = [
            (audit.min_weight_fraction, 0.25),
            (audit.max_fanout_factor, 4.0),
            (
                result.solution.total_cost() / result.report.lp_lower_bound,
                2.0 * result.report.rounded.multiplier,
            ),
        ]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return audit_solution(*args, **kwargs)

        monkeypatch.setattr(audit_module, "audit_solution", counted)
        checks = check_paper_guarantees(small_random_problem, result)
        assert calls == []
        assert [(check.measured, check.bound) for check in checks] == expected
        assert [check.holds for check in checks] == [
            audit.min_weight_fraction + 1e-9 >= 0.25,
            audit.max_fanout_factor <= 4.0 + 1e-9,
            expected[2][0] <= expected[2][1] + 1e-9,
        ]


class TestMetrics:
    def test_cost_ratio_edge_cases(self):
        assert cost_ratio(10.0, 5.0) == 2.0
        assert cost_ratio(0.0, 0.0) == 1.0
        assert cost_ratio(3.0, 0.0) == float("inf")

    def test_cost_breakdown_sums(self, tiny_problem):
        solution = greedy_solution(tiny_problem)
        breakdown = cost_breakdown(solution)
        assert breakdown["total_cost"] == pytest.approx(
            breakdown["reflector_cost"]
            + breakdown["stream_delivery_cost"]
            + breakdown["assignment_cost"]
        )

    def test_reliability_metrics(self, tiny_problem):
        solution = greedy_solution(tiny_problem)
        metrics = reliability_metrics(tiny_problem, solution)
        assert 0.0 <= metrics["min_success"] <= metrics["mean_success"] <= 1.0
        assert metrics["fraction_meeting_threshold"] == 1.0
        assert metrics["mean_paths_per_demand"] >= 1.0

    def test_compare_designs_rows(self, tiny_problem):
        designs = {
            "greedy": greedy_solution(tiny_problem),
            "empty": OverlaySolution.from_assignments(tiny_problem, {}),
        }
        rows = compare_designs(tiny_problem, designs, lower_bound=1.0)
        assert len(rows) == 2
        greedy_row = next(row for row in rows if row["design"] == "greedy")
        empty_row = next(row for row in rows if row["design"] == "empty")
        assert greedy_row["cost_ratio"] > 1.0
        assert empty_row["unserved_demands"] == 2

    def test_compare_designs_extra_metrics(self, tiny_problem):
        rows = compare_designs(
            tiny_problem,
            {"greedy": greedy_solution(tiny_problem)},
            extra_metrics={"reflectors": lambda p, s: float(len(s.built_reflectors))},
        )
        assert rows[0]["reflectors"] >= 1.0


class TestTables:
    ROWS = [
        {"name": "a", "value": 1.23456, "count": 3},
        {"name": "bb", "value": 7.0, "count": 10},
    ]

    def test_format_table_alignment(self):
        text = format_table(self.ROWS, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 2 + 1 + len(self.ROWS)

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_table_column_subset(self):
        text = format_table(self.ROWS, columns=["name"])
        assert "value" not in text
