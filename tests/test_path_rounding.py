"""Tests for the Section-6.5 path rounding (repro.core.path_rounding)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.formulation import ExtensionOptions, build_sparse_formulation
from repro.core.path_rounding import (
    _build_path_lp,
    _enumerate_paths,
    _solve_path_lp,
    arc_capacity_entangled_sets,
    color_entangled_sets,
    path_round,
)
from repro.core.problem import OverlayDesignProblem
from repro.core.rounding import RoundingParameters, round_solution
from repro.core.serialization import problem_from_dict, problem_to_dict


def _rounded(problem, options=None, c=64.0, seed=0):
    formulation = build_sparse_formulation(problem, options)
    fractional = formulation.fractional_solution(formulation.solve()).support()
    return round_solution(problem, fractional, RoundingParameters(c=c, seed=seed))


class TestEntangledSets:
    def test_color_sets_grouped_per_demand_and_color(self, colored_problem):
        rounded = _rounded(colored_problem)
        support = list(rounded.x.keys())
        sets = color_entangled_sets(colored_problem, support)
        for entangled in sets:
            assert entangled.capacity == 1.0
            demand_keys = {key[1] for key in entangled.keys}
            colors = {colored_problem.color(key[0]) for key in entangled.keys}
            assert len(demand_keys) == 1
            assert len(colors) == 1
            assert len(entangled.keys) >= 2

    def test_uncolored_problem_yields_no_color_sets(self, tiny_problem):
        rounded = _rounded(tiny_problem)
        assert color_entangled_sets(tiny_problem, list(rounded.x.keys())) == []

    def test_arc_capacity_sets(self):
        problem = OverlayDesignProblem()
        problem.add_stream("a")
        problem.add_stream("b")
        problem.add_reflector("r", cost=1.0, fanout=8)
        problem.add_reflector("r2", cost=1.0, fanout=8)
        problem.add_sink("d")
        for stream in ("a", "b"):
            problem.add_stream_edge(stream, "r", 0.01, 1.0)
            problem.add_stream_edge(stream, "r2", 0.01, 1.0)
        problem.add_delivery_edge("r", "d", 0.02, 0.5, capacity=1.0)
        problem.add_delivery_edge("r2", "d", 0.02, 0.5)
        problem.add_demand("d", "a", 0.99)
        problem.add_demand("d", "b", 0.99)
        rounded = _rounded(problem)
        sets = arc_capacity_entangled_sets(problem, list(rounded.x.keys()))
        assert len(sets) <= 1
        if sets:
            assert sets[0].capacity == 1.0
            assert all(key[0] == "r" for key in sets[0].keys)


class TestPathRounding:
    def test_unconstrained_path_rounding_serves_demands(self, tiny_problem):
        rounded = _rounded(tiny_problem)
        result = path_round(tiny_problem, rounded, rng=np.random.default_rng(0))
        assert result.assignments
        assert result.boxes_served == result.boxes_total
        served_demands = {key[1] for key in result.assignments}
        assert served_demands == {d.key for d in tiny_problem.demands}

    def test_weight_guarantee_similar_to_gap(self, small_random_problem):
        rounded = _rounded(small_random_problem, seed=2)
        result = path_round(small_random_problem, rounded, rng=np.random.default_rng(1))
        served: dict = {}
        for reflector, demand_key in result.assignments:
            served.setdefault(demand_key, []).append(reflector)
        for demand in small_random_problem.demands:
            delivered = sum(
                small_random_problem.edge_weight(demand, r)
                for r in served.get(demand.key, [])
            )
            assert delivered >= small_random_problem.demand_weight(demand) / 4.0 - 1e-9

    def test_color_constraints_respected_within_slack(self, colored_problem):
        options = ExtensionOptions(use_color_constraints=True)
        rounded = _rounded(colored_problem, options=options, seed=1)
        support = list(rounded.x.keys())
        entangled = color_entangled_sets(colored_problem, support)
        result = path_round(
            colored_problem,
            rounded,
            entangled_sets=entangled,
            rng=np.random.default_rng(3),
            entangled_slack=2.0,
        )
        # At most "capacity * slack" distinct reflectors of one color per demand.
        used_pairs = result.assignments
        for entangled_set in entangled:
            used = len(used_pairs & entangled_set.keys)
            assert used <= 2.0 * entangled_set.capacity + 1e-9
        assert result.violation_factors.get("entangled", 0.0) <= 2.0 + 1e-9

    def test_fanout_violation_bounded(self, small_random_problem):
        rounded = _rounded(small_random_problem, seed=5)
        result = path_round(small_random_problem, rounded, rng=np.random.default_rng(5))
        per_reflector: dict = {}
        for reflector, demand_key in result.assignments:
            per_reflector[reflector] = per_reflector.get(reflector, 0) + 1
        for reflector, used in per_reflector.items():
            assert used <= 4.0 * small_random_problem.fanout(reflector) + 1e-9

    def test_cost_reported_matches_assignments(self, tiny_problem):
        rounded = _rounded(tiny_problem)
        result = path_round(tiny_problem, rounded, rng=np.random.default_rng(0))
        expected = sum(
            tiny_problem.delivery_cost(reflector, sink, stream)
            for reflector, (sink, stream) in result.assignments
        )
        assert result.cost == pytest.approx(expected)
        assert result.lp_cost >= 0.0

    def test_empty_support_returns_empty_result(self, tiny_problem):
        rounded = _rounded(tiny_problem)
        rounded.x = {}
        result = path_round(tiny_problem, rounded, rng=np.random.default_rng(0))
        assert result.assignments == set()
        assert result.boxes_total == 0

    def test_deterministic_with_rng(self, colored_problem):
        rounded = _rounded(colored_problem, seed=7)
        a = path_round(colored_problem, rounded, rng=np.random.default_rng(11))
        b = path_round(colored_problem, rounded, rng=np.random.default_rng(11))
        assert a.assignments == b.assignments


class TestPathLP:
    def test_row_counts_per_family(self, colored_problem):
        options = ExtensionOptions(use_color_constraints=True)
        rounded = _rounded(colored_problem, options=options, seed=1)
        entangled = color_entangled_sets(colored_problem, list(rounded.x))
        paths, boxes = _enumerate_paths(colored_problem, rounded, keep_degenerate_box=True)
        compiled, stats = _build_path_lp(colored_problem, paths, entangled)
        rows = {block.name: block.rows for block in stats.blocks}
        pairs = {path.key for path in paths}
        assert list(rows) == ["(ii) box", "(i) pair", "(i) fanout", "(iii) entangled"]
        assert rows["(ii) box"] == sum(len(demand_boxes) for demand_boxes in boxes.values())
        assert rows["(i) pair"] == len(pairs)
        assert rows["(i) fanout"] == len({reflector for reflector, _ in pairs})
        assert rows["(iii) entangled"] == sum(1 for s in entangled if s.keys & pairs) > 0
        assert compiled.A_eq.shape == (rows["(ii) box"], len(paths))
        assert compiled.A_ub.shape == (
            rows["(i) pair"] + rows["(i) fanout"] + rows["(iii) entangled"],
            len(paths),
        )
        # Every path lies in exactly one box row and one pair row.
        assert np.all(compiled.A_eq.sum(axis=0) == 1)
        assert np.all(compiled.A_ub[: rows["(i) pair"]].sum(axis=0) == 1)
        # Pair rows come in order of the pair's first path.
        first_paths = [compiled.A_ub[row].indices.min() for row in range(rows["(i) pair"])]
        assert first_paths == sorted(first_paths)

    def test_arc_capacity_rows(self, small_random_problem):
        # Cap every other delivery link of the random instance at one stream.
        document = problem_to_dict(small_random_problem)
        for i, edge in enumerate(document["delivery_edges"]):
            if i % 2 == 0:
                edge["capacity"] = 1.0
        problem = problem_from_dict(document)
        rounded = _rounded(problem, options=ExtensionOptions(use_arc_capacities=True))
        entangled = arc_capacity_entangled_sets(problem, list(rounded.x))
        paths, _boxes = _enumerate_paths(problem, rounded, keep_degenerate_box=True)
        compiled, stats = _build_path_lp(problem, paths, entangled)
        rows = {block.name: block for block in stats.blocks}
        pairs = {path.key for path in paths}
        assert rows["(iii) entangled"].rows == sum(1 for s in entangled if s.keys & pairs) > 0
        assert rows["(iii) entangled"].nonzeros == sum(
            1 for path in paths for s in entangled if path.key in s.keys
        )
        entangled_rhs = compiled.b_ub[-rows["(iii) entangled"].rows :]
        assert np.all(entangled_rhs == 2.0)

    def test_lp_solution_satisfies_every_row(self, colored_problem):
        options = ExtensionOptions(use_color_constraints=True)
        rounded = _rounded(colored_problem, options=options, seed=1)
        entangled = color_entangled_sets(colored_problem, list(rounded.x))
        paths, _boxes = _enumerate_paths(colored_problem, rounded, keep_degenerate_box=True)
        compiled, _stats = _build_path_lp(colored_problem, paths, entangled)
        values, objective = _solve_path_lp(colored_problem, paths, entangled)
        assert np.allclose(compiled.A_eq @ values, 1.0)
        assert np.all(compiled.A_ub @ values <= compiled.b_ub + 1e-9)
        assert objective == pytest.approx(sum(p.cost / 2.0 * v for p, v in zip(paths, values)))
