"""Tests for the Section-6 extended pipeline (``DesignPipeline.extended``)."""

from __future__ import annotations

from repro.api import DesignPipeline
from repro.core.algorithm import DesignParameters
from repro.core.extensions import color_constrained_parameters
from repro.core.formulation import ExtensionOptions
from repro.core.problem import OverlayDesignProblem


class TestExtendedPipeline:
    def test_matches_plain_pipeline_without_extensions(self, tiny_problem):
        context = DesignPipeline.extended().run(tiny_problem, DesignParameters(seed=0))
        assert context.path_rounding is None
        assert context.entangled_sets == []
        assert context.solution.assignments
        assert context.solution.total_cost() / context.lp_lower_bound > 0

    def test_color_constraints_trigger_path_rounding(self, colored_problem):
        params = color_constrained_parameters(DesignParameters(seed=1))
        context = DesignPipeline.extended().run(colored_problem, params)
        assert context.path_rounding is not None
        assert context.solution.metadata["path_rounding"] is True

    def test_color_constrained_solution_uses_diverse_isps(self, colored_problem):
        params = color_constrained_parameters(DesignParameters(seed=1))
        context = DesignPipeline.extended().run(colored_problem, params)
        # At most 2 same-color copies per demand (capacity 1 with slack 2 in the
        # rounding); typically exactly at most 1.
        for demand in colored_problem.demands:
            per_color: dict = {}
            for reflector in context.solution.reflectors_serving(demand):
                color = colored_problem.color(reflector)
                per_color[color] = per_color.get(color, 0) + 1
            for copies in per_color.values():
                assert copies <= 2

    def test_bandwidth_extension_runs_through_plain_gap(self, small_random_problem):
        params = DesignParameters(
            seed=2, extensions=ExtensionOptions(use_bandwidth=True)
        )
        context = DesignPipeline.extended().run(small_random_problem, params)
        assert context.path_rounding is None
        assert context.solution.assignments

    def test_arc_capacities_trigger_path_rounding(self):
        problem = OverlayDesignProblem()
        problem.add_stream("a")
        problem.add_stream("b")
        for name in ("r1", "r2", "r3"):
            problem.add_reflector(name, cost=2.0, fanout=6)
            problem.add_stream_edge("a", name, 0.02, 1.0)
            problem.add_stream_edge("b", name, 0.02, 1.0)
        problem.add_sink("d")
        problem.add_delivery_edge("r1", "d", 0.03, 0.5, capacity=1.0)
        problem.add_delivery_edge("r2", "d", 0.03, 0.5, capacity=1.0)
        problem.add_delivery_edge("r3", "d", 0.03, 0.5)
        problem.add_demand("d", "a", 0.99)
        problem.add_demand("d", "b", 0.99)
        params = DesignParameters(
            seed=0, extensions=ExtensionOptions(use_arc_capacities=True)
        )
        context = DesignPipeline.extended().run(problem, params)
        assert context.path_rounding is not None
        # Capacity-1 arcs may be used for at most 2 demands (slack 2).
        for reflector in ("r1", "r2"):
            used = sum(
                1
                for (sink, _stream), reflectors in context.solution.assignments.items()
                if sink == "d" and reflector in reflectors
            )
            assert used <= 2

    def test_repair_composes_with_extensions(self, colored_problem):
        params = color_constrained_parameters(
            DesignParameters(seed=3, repair_shortfall=True)
        )
        context = DesignPipeline.extended().run(colored_problem, params)
        for demand in colored_problem.demands:
            assert context.solution.weight_satisfaction(demand) >= 0.25 - 1e-9

    def test_color_constrained_parameters_preserve_other_fields(self):
        base = DesignParameters(seed=5, repair_shortfall=True, max_rounding_attempts=7)
        params = color_constrained_parameters(base)
        assert params.extensions.use_color_constraints
        assert params.repair_shortfall is True
        assert params.max_rounding_attempts == 7
        assert params.rounding.seed == 5
