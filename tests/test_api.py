"""Tests for the unified strategy API (repro.api).

Covers the satellite checklist of the API redesign: registry completeness and
name stability, request/result JSON round-trips (stage timings + audit
fields included), pipeline stage-swap and hook points, batch determinism
across ``jobs``, and the ``repro.__all__`` API-surface snapshot.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.api import (
    SCHEMA_VERSION,
    Designer,
    DesignPipeline,
    DesignRequest,
    RoundStage,
    comparison_designers,
    design_batch,
    designer_names,
    dump_requests_jsonl,
    get_designer,
    load_requests_jsonl,
    register_designer,
    request_from_dict,
    request_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.api.registry import _REGISTRY
from repro.baselines import (
    exact_design,
    greedy_design,
    lp_lower_bound,
    naive_quality_first_design,
    random_design,
    single_tree_design,
)
from repro.core.algorithm import DesignParameters, design_overlay
from repro.core.extensions import color_constrained_parameters, design_overlay_extended
from repro.core.rounding import RoundingParameters
from repro.core.serialization import problem_to_dict
from repro.workloads.tiny import build_tiny_problem

#: The stable strategy catalogue, in registration order.  Renaming or
#: removing an entry is a breaking API change -- update docs/api.md and the
#: migration guide if this pin ever has to move.
EXPECTED_STRATEGIES = [
    "spaa03",
    "spaa03-extended",
    "greedy",
    "naive-quality-first",
    "single-tree",
    "random",
    "exact",
    "milp-exact",
    "lp-bound",
]


@pytest.fixture
def problem():
    return build_tiny_problem()


class TestRegistry:
    def test_every_strategy_registered_with_stable_name(self):
        assert designer_names() == EXPECTED_STRATEGIES

    def test_get_designer_resolves_every_strategy(self):
        for name in EXPECTED_STRATEGIES:
            designer = get_designer(name)
            assert designer.name == name
            assert callable(designer.design)
            assert isinstance(designer, Designer)

    def test_unknown_strategy_raises_with_known_names(self):
        with pytest.raises(KeyError, match="unknown designer 'nope'"):
            get_designer("nope")

    def test_comparison_designers_are_the_integral_baselines(self):
        names = [d.name for d in comparison_designers()]
        assert names == ["greedy", "naive-quality-first", "single-tree", "random"]

    def test_newly_registered_designer_joins_comparisons(self, problem):
        @register_designer("test-everything-r1", description="test double")
        def _run(request):
            solution = greedy_design(request.problem)
            from repro.api.types import DesignResult

            return DesignResult(strategy="test-everything-r1", solution=solution)

        try:
            assert "test-everything-r1" in [d.name for d in comparison_designers()]
            result = get_designer("test-everything-r1").design(
                DesignRequest(problem=problem)
            )
            assert result.strategy == "test-everything-r1"
        finally:
            _REGISTRY.pop("test-everything-r1", None)

    def test_unknown_option_rejected(self, problem):
        # request.strategy is left at its default: the error must still name
        # the designer actually invoked, not 'spaa03'.
        with pytest.raises(ValueError, match="for strategy 'greedy'"):
            get_designer("greedy").design(
                DesignRequest(problem=problem, options={"typo": 1})
            )


class TestLegacyEquivalence:
    """Every strategy is bit-identical to its pre-registry entry point."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_spaa03_matches_design_overlay(self, problem, seed):
        parameters = DesignParameters(seed=seed, repair_shortfall=True)
        report = design_overlay(problem, parameters)
        result = get_designer("spaa03").design(
            DesignRequest(problem=problem, parameters=parameters)
        )
        assert result.solution.assignments == report.solution.assignments
        assert result.solution.total_cost() == report.solution.total_cost()
        assert result.lower_bound == report.lp_lower_bound
        assert result.report.rounding_attempts == report.rounding_attempts
        # The pipeline's audit stage lands on the report for reuse.
        assert report.solution_audit is not None
        assert report.solution_audit.summary() == result.audit.summary()

    def test_spaa03_extended_matches_design_overlay_extended(self, problem):
        parameters = color_constrained_parameters(DesignParameters(seed=3))
        report = design_overlay_extended(problem, parameters)
        result = get_designer("spaa03-extended").design(
            DesignRequest(problem=problem, parameters=parameters)
        )
        assert result.solution.assignments == report.solution.assignments
        assert result.metadata.get("path_rounding", False) == bool(report.path_rounding)

    def test_baselines_match_legacy_functions(self, problem):
        pairs = [
            ("greedy", greedy_design(problem), {}),
            ("naive-quality-first", naive_quality_first_design(problem), {}),
            ("single-tree", single_tree_design(problem), {}),
            ("random", random_design(problem, rng=11), {"seed": 11}),
        ]
        for name, legacy, options in pairs:
            result = get_designer(name).design(
                DesignRequest(problem=problem, options=options)
            )
            assert result.solution.assignments == legacy.assignments, name
            assert result.audit is not None

    def test_exact_matches_legacy_function(self, problem):
        legacy = exact_design(problem)
        result = get_designer("exact").design(DesignRequest(problem=problem))
        assert result.solution.assignments == legacy.solution.assignments
        assert result.metadata["optimal_cost"] == legacy.optimal_cost
        assert result.metadata["nodes_explored"] == legacy.nodes_explored

    def test_lp_bound_matches_legacy_function(self, problem):
        result = get_designer("lp-bound").design(DesignRequest(problem=problem))
        assert result.lower_bound == pytest.approx(lp_lower_bound(problem), abs=0)
        assert result.solution.assignments == {}


class TestDeprecatedWrappers:
    """Every classic entry point warns once and names its replacement."""

    def test_every_wrapper_emits_a_deprecation_warning(self, problem):
        calls = [
            ("design_overlay", lambda: design_overlay(problem, DesignParameters(seed=0))),
            (
                "design_overlay_extended",
                lambda: design_overlay_extended(
                    problem, color_constrained_parameters(DesignParameters(seed=0))
                ),
            ),
            ("greedy_design", lambda: greedy_design(problem)),
            (
                "naive_quality_first_design",
                lambda: naive_quality_first_design(problem),
            ),
            ("single_tree_design", lambda: single_tree_design(problem)),
            ("random_design", lambda: random_design(problem, rng=1)),
            ("exact_design", lambda: exact_design(problem)),
            ("lp_lower_bound", lambda: lp_lower_bound(problem)),
        ]
        for name, call in calls:
            with pytest.warns(DeprecationWarning, match=f"{name} is deprecated"):
                call()

    def test_warning_names_the_replacement(self, problem):
        with pytest.warns(DeprecationWarning, match="repro.api.run_request"):
            design_overlay(problem, DesignParameters(seed=0))


class TestSerialization:
    def test_request_roundtrip(self, problem):
        from repro.serve.cache import request_digest

        request = DesignRequest(
            problem=problem,
            parameters=DesignParameters(
                rounding=RoundingParameters(c=16.0, delta=0.5, seed=9),
                repair_shortfall=True,
                max_rounding_attempts=7,
            ),
            strategy="greedy",
            options={"fanout_slack": 2.0},
            request_id="req-42",
        )
        document = request_to_dict(request)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["kind"] == "design-request"
        # Older builds wrote an LP build-backend knob; its documents still load.
        older = json.loads(json.dumps(document))
        older["parameters"]["lp_backend"] = "expr"
        restored = request_from_dict(older)
        current = request_from_dict(json.loads(json.dumps(document)))
        assert restored.strategy == "greedy"
        assert restored.request_id == "req-42"
        assert restored.options == {"fanout_slack": 2.0}
        assert restored.parameters == request.parameters
        assert restored.parameters == current.parameters
        assert problem_to_dict(restored.problem) == problem_to_dict(problem)
        assert request_digest(restored) == request_digest(current)
        assert request_digest(restored) == request_digest(request)

    def test_result_roundtrip_with_stage_timings_and_audit(self, problem):
        request = DesignRequest(
            problem=problem,
            parameters=DesignParameters(seed=1, repair_shortfall=True),
            request_id="rt-1",
        )
        result = get_designer("spaa03").design(request)
        document = json.loads(json.dumps(result_to_dict(result)))
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["kind"] == "design-result"
        restored = result_from_dict(document, problem)
        assert restored.strategy == "spaa03"
        assert restored.request_id == "rt-1"
        assert restored.solution.assignments == result.solution.assignments
        assert restored.lower_bound == result.lower_bound
        # Stage timings survive exactly (keys and values).
        assert restored.stage_seconds == result.stage_seconds
        assert set(restored.stage_seconds) >= {"formulate", "solve_lp", "rounding", "gap"}
        # Every audit field survives exactly.
        assert restored.audit.weight_fraction == result.audit.weight_fraction
        assert restored.audit.fanout_factor == result.audit.fanout_factor
        assert restored.audit.color_violations == result.audit.color_violations
        assert restored.audit.arc_capacity_factor == result.audit.arc_capacity_factor
        assert restored.audit.unserved_demands == result.audit.unserved_demands
        # The in-memory report is intentionally not serialized.
        assert restored.report is None

    def test_wrong_kind_and_version_rejected(self, problem):
        request_doc = request_to_dict(DesignRequest(problem=problem))
        with pytest.raises(ValueError, match="expected a 'design-result'"):
            result_from_dict(request_doc, problem)
        request_doc["schema_version"] = 99
        with pytest.raises(ValueError, match="unsupported schema_version"):
            request_from_dict(request_doc)


class TestPipeline:
    def test_hooks_intercept_the_fractional_solution(self, problem):
        seen = {}

        def hook(stage_name, context):
            if stage_name == "solve":
                seen["objective"] = context.fractional.objective

        context = DesignPipeline.standard(hooks=[hook]).run(
            problem, DesignParameters(seed=0)
        )
        assert seen["objective"] == context.fractional.objective

    def test_stage_swap_replaces_the_rounding(self, problem):
        class TaggedRoundStage(RoundStage):
            algorithm_label = "tagged-rounding"

            def solution_metadata(self, context):
                metadata = super().solution_metadata(context)
                metadata["swapped"] = True
                return metadata

        base = DesignPipeline.standard()
        pipeline = base.with_stage("round", TaggedRoundStage())
        # with_stage is copy-returning: the template pipeline is untouched.
        assert not any(isinstance(stage, TaggedRoundStage) for stage in base.stages)
        context = pipeline.run(problem, DesignParameters(seed=0))
        assert context.solution.metadata["algorithm"] == "tagged-rounding"
        assert context.solution.metadata["swapped"] is True
        # The swapped stage still produces the same draw for the same seed.
        baseline = design_overlay(problem, DesignParameters(seed=0))
        assert context.solution.assignments == baseline.solution.assignments

    def test_stage_names_and_unknown_swap(self):
        pipeline = DesignPipeline.standard()
        assert [stage.name for stage in pipeline.stages] == [
            "formulate",
            "solve",
            "round",
            "repair",
            "audit",
        ]
        with pytest.raises(KeyError, match="no stage named 'nope'"):
            pipeline.with_stage("nope", RoundStage())

    def test_report_matches_design_overlay(self, problem):
        parameters = DesignParameters(seed=5)
        context = DesignPipeline.standard().run(problem, parameters)
        report = design_overlay(problem, parameters)
        assert context.report().solution.assignments == report.solution.assignments
        assert context.report().formulation_size == report.formulation_size


class TestBatch:
    def _requests(self, problem):
        return [
            DesignRequest(
                problem=problem,
                parameters=DesignParameters(seed=seed, repair_shortfall=True),
                strategy="spaa03",
                request_id=f"spaa03-{seed}",
            )
            for seed in (0, 1)
        ] + [
            DesignRequest(problem=problem, strategy="greedy", request_id="greedy-0"),
            DesignRequest(
                problem=problem,
                parameters=DesignParameters(seed=4),
                strategy="random",
                request_id="random-4",
            ),
        ]

    @staticmethod
    def _comparable(result):
        document = result_to_dict(result)
        document.pop("stage_seconds")  # wall-clock noise
        return document

    def test_jobs_1_vs_jobs_2_bit_identical(self, problem):
        requests = self._requests(problem)
        serial = design_batch(requests, jobs=1)
        parallel = design_batch(requests, jobs=2)
        assert [self._comparable(r) for r in serial] == [
            self._comparable(r) for r in parallel
        ]

    def test_results_in_request_order(self, problem):
        results = design_batch(self._requests(problem), jobs=2)
        assert [r.request_id for r in results] == [
            "spaa03-0",
            "spaa03-1",
            "greedy-0",
            "random-4",
        ]
        assert [r.strategy for r in results] == ["spaa03", "spaa03", "greedy", "random"]

    def test_jsonl_roundtrip(self, problem, tmp_path):
        requests = self._requests(problem)
        path = tmp_path / "requests.jsonl"
        dump_requests_jsonl(requests, path)
        restored = load_requests_jsonl(path)
        assert [r.request_id for r in restored] == [r.request_id for r in requests]
        assert [request_to_dict(r) for r in restored] == [
            request_to_dict(r) for r in requests
        ]

    def test_jsonl_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "design-request"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_requests_jsonl(path)


class TestEvaluation:
    """DesignRequest.evaluation: Monte-Carlo sweeps attached to results."""

    SPEC = dict(scenarios=("baseline", "flash-crowd"), trials=4, num_packets=200, window=40)

    def test_design_attaches_evaluation(self, tiny_problem):
        from repro.api import EvaluationSpec

        request = DesignRequest(
            problem=tiny_problem,
            strategy="greedy",
            evaluation=EvaluationSpec(**self.SPEC),
        )
        result = get_designer("greedy").design(request)
        assert sorted(result.evaluation) == ["baseline", "flash-crowd"]
        for metrics in result.evaluation.values():
            assert 0.0 <= metrics["mean_loss"] <= 1.0
            assert metrics["trials"] == 4

    def test_no_spec_no_evaluation(self, tiny_problem):
        result = get_designer("greedy").design(DesignRequest(problem=tiny_problem))
        assert result.evaluation is None

    def test_bound_only_strategy_skips_evaluation(self, tiny_problem):
        from repro.api import EvaluationSpec

        request = DesignRequest(
            problem=tiny_problem,
            strategy="lp-bound",
            evaluation=EvaluationSpec(**self.SPEC),
        )
        result = get_designer("lp-bound").design(request)
        assert result.evaluation is None

    def test_evaluation_deterministic(self, tiny_problem):
        from repro.api import EvaluationSpec

        results = [
            get_designer("greedy")
            .design(
                DesignRequest(
                    problem=tiny_problem,
                    strategy="greedy",
                    evaluation=EvaluationSpec(**self.SPEC, seed=5),
                )
            )
            .evaluation
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_spec_validation(self):
        from repro.api import EvaluationSpec

        with pytest.raises(ValueError):
            EvaluationSpec(trials=0)
        with pytest.raises(ValueError):
            EvaluationSpec(num_packets=0)
        with pytest.raises(ValueError):
            EvaluationSpec(window=0)
        # Lists normalize to tuples so specs stay hashable-friendly/JSON-safe.
        assert EvaluationSpec(scenarios=["baseline"]).scenarios == ("baseline",)

    def test_request_round_trip_with_evaluation(self, tiny_problem):
        from repro.api import EvaluationSpec

        request = DesignRequest(
            problem=tiny_problem,
            strategy="greedy",
            evaluation=EvaluationSpec(scenarios="all", trials=7, seed=3),
        )
        restored = request_from_dict(request_to_dict(request))
        assert restored.evaluation == request.evaluation
        bare = request_from_dict(request_to_dict(DesignRequest(problem=tiny_problem)))
        assert bare.evaluation is None

    def test_result_round_trip_with_evaluation(self, tiny_problem):
        from repro.api import EvaluationSpec

        request = DesignRequest(
            problem=tiny_problem,
            strategy="greedy",
            evaluation=EvaluationSpec(**self.SPEC),
        )
        result = get_designer("greedy").design(request)
        restored = result_from_dict(result_to_dict(result), tiny_problem)
        assert restored.evaluation == result.evaluation


def test_api_surface_snapshot():
    """Pin ``repro.__all__``: additions are deliberate, removals are breaking."""
    assert sorted(repro.__all__) == sorted(
        [
            "ArtifactCache",
            "Demand",
            "DeliveryEdge",
            "Designer",
            "DesignParameters",
            "DesignPipeline",
            "DesignReport",
            "DesignRequest",
            "DesignResult",
            "DesignService",
            "DesignSession",
            "EvaluationSpec",
            "ExtensionOptions",
            "MonteCarloConfig",
            "OverlayDesignProblem",
            "OverlaySolution",
            "ProblemDelta",
            "RoundingParameters",
            "StreamEdge",
            "apply_delta",
            "build_sparse_formulation",
            "design_batch",
            "design_incremental",
            "design_overlay",
            "design_overlay_extended",
            "designer_names",
            "diff_problems",
            "evaluate_design",
            "fractional_lower_bound",
            "get_designer",
            "invert_delta",
            "register_designer",
            "repair_weight_shortfalls",
            "run_monte_carlo",
            "run_request",
            "simulate_solution",
            "__version__",
        ]
    )
    for name in repro.__all__:
        assert hasattr(repro, name), name
