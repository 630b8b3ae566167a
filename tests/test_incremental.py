"""Unit tests for the incremental layer: delta model, impact rules, engine
options, and the lazy-partition / assignment-level stitch plumbing the engine
rides on.  The end-to-end quality gates live in
``tests/test_incremental_differential.py``; these tests pin the component
contracts directly."""

import pytest

from repro.core.problem import OverlayDesignProblem
from repro.core.serialization import problem_digest
from repro.incremental import (
    ProblemDelta,
    SinkAttachment,
    affected_demand_keys,
    apply_delta,
    delta_from_dict,
    delta_to_dict,
    design_incremental,
    diff_problems,
    invert_delta,
)
from repro.incremental.delta import DeliveryEdgeSpec, StreamEdgeSpec
from repro.scale import build_partition, stitch_assignments
from repro.api import DesignRequest, get_designer


def small_problem(name="inc-unit") -> OverlayDesignProblem:
    problem = OverlayDesignProblem(name=name)
    problem.add_stream("s1")
    problem.add_stream("s2")
    for index in range(4):
        reflector = f"r{index}"
        problem.add_reflector(reflector, cost=5.0 + index, fanout=4)
        problem.add_stream_edge("s1", reflector, loss_probability=0.01, cost=1.0)
        problem.add_stream_edge("s2", reflector, loss_probability=0.02, cost=1.0)
    for index in range(6):
        sink = f"sink{index}"
        problem.add_sink(sink)
        for r_index in range(4):
            problem.add_delivery_edge(
                f"r{r_index}",
                sink,
                loss_probability=0.02 + 0.01 * ((index + r_index) % 3),
                cost=0.5 + 0.1 * r_index,
            )
        problem.add_demand(sink, "s1", success_threshold=0.9)
        if index % 2 == 0:
            problem.add_demand(sink, "s2", success_threshold=0.85)
    return problem


def churned(problem: OverlayDesignProblem) -> OverlayDesignProblem:
    """A hand-built churn: sink5 leaves, sink6 joins, one edge drifts."""
    rebuilt = OverlayDesignProblem(name=problem.name)
    for stream in problem.streams:
        rebuilt.add_stream(stream, bandwidth=problem.stream_bandwidth(stream))
    for reflector in problem.reflectors:
        info = problem.reflector_info(reflector)
        rebuilt.add_reflector(
            reflector, cost=info.cost, fanout=info.fanout, color=info.color,
        )
    for edge in problem.stream_edges():
        rebuilt.add_stream_edge(
            edge.stream, edge.reflector, edge.loss_probability, edge.cost,
        )
    for sink in problem.sinks:
        if sink == "sink5":
            continue
        rebuilt.add_sink(sink)
    rebuilt.add_sink("sink6")
    for reflector, sink, loss, cost in problem.delivery_link_data():
        if sink == "sink5":
            continue
        if (reflector, sink) == ("r0", "sink0"):
            loss = 0.2  # measured drift
        rebuilt.add_delivery_edge(reflector, sink, loss_probability=loss, cost=cost)
    rebuilt.add_delivery_edge("r1", "sink6", loss_probability=0.03, cost=0.6)
    rebuilt.add_delivery_edge("r2", "sink6", loss_probability=0.04, cost=0.7)
    for demand in problem.demands:
        if demand.sink == "sink5":
            continue
        rebuilt.add_demand(
            demand.sink, demand.stream, success_threshold=demand.success_threshold,
        )
    rebuilt.add_demand("sink6", "s1", success_threshold=0.9)
    return rebuilt


class TestDeltaModel:
    def test_diff_classifies_each_change_kind(self):
        old = small_problem()
        new = churned(old)
        delta = diff_problems(old, new)
        assert set(delta.sinks_added) == {"sink6"}
        assert set(delta.sinks_removed) == {"sink5"}
        assert ("r0", "sink0") in delta.delivery_changed
        assert not delta.stream_edges_changed
        assert not delta.structural
        # The removed sink's attachment is self-contained.
        attachment = delta.sinks_removed["sink5"]
        assert isinstance(attachment, SinkAttachment)
        assert {reflector for reflector, _spec in attachment.delivery} == {
            "r0",
            "r1",
            "r2",
            "r3",
        }
        assert attachment.demands == (("s1", 0.9),)

    def test_apply_then_invert_round_trips(self):
        old = small_problem()
        new = churned(old)
        delta = diff_problems(old, new)
        applied = apply_delta(old, delta)
        assert problem_digest(applied) == problem_digest(new)
        restored = apply_delta(applied, invert_delta(delta))
        assert problem_digest(restored) == problem_digest(old)

    def test_serde_round_trip(self):
        delta = diff_problems(small_problem(), churned(small_problem()))
        document = delta_to_dict(delta)
        decoded = delta_from_dict(document)
        assert decoded == delta
        assert delta_to_dict(decoded) == document

    def test_structural_delta_refuses_apply(self):
        old = small_problem()
        new = small_problem()
        new.add_reflector("r-extra", cost=1.0, fanout=2)
        delta = diff_problems(old, new)
        assert delta.requires_full_redesign
        assert any("reflector added" in reason for reason in delta.structural)
        with pytest.raises(ValueError, match="structural"):
            apply_delta(old, delta)

    def test_stale_delta_refuses_apply(self):
        delta = ProblemDelta(
            delivery_changed={
                ("r0", "sink0"): (
                    DeliveryEdgeSpec(loss_probability=0.5, cost=9.9),
                    DeliveryEdgeSpec(loss_probability=0.1, cost=1.0),
                )
            }
        )
        with pytest.raises(ValueError, match="stale delta"):
            apply_delta(small_problem(), delta)

    def test_add_existing_sink_refuses_apply(self):
        delta = ProblemDelta(sinks_added={"sink0": SinkAttachment()})
        with pytest.raises(ValueError, match="already exists"):
            apply_delta(small_problem(), delta)


class TestAffectedDemands:
    def test_added_sink_affects_all_its_demands(self):
        new = churned(small_problem())
        delta = ProblemDelta(sinks_added={"sink6": SinkAttachment()})
        assert affected_demand_keys(delta, new) == {("sink6", "s1")}

    def test_removed_sink_affects_nothing(self):
        new = churned(small_problem())
        delta = ProblemDelta(sinks_removed={"sink5": SinkAttachment()})
        assert affected_demand_keys(delta, new) == frozenset()

    def test_delivery_change_affects_the_sinks_demands(self):
        new = small_problem()
        delta = ProblemDelta(delivery_changed={("r0", "sink0"): (None, None)})
        assert affected_demand_keys(delta, new) == {
            ("sink0", "s1"),
            ("sink0", "s2"),
        }

    def test_stream_edge_change_affects_reachable_demands_of_that_stream(self):
        new = small_problem()
        delta = ProblemDelta(
            stream_edges_changed={
                ("s2", "r1"): (
                    StreamEdgeSpec(0.02, 1.0),
                    StreamEdgeSpec(0.03, 1.0),
                )
            }
        )
        affected = affected_demand_keys(delta, new)
        # Every sink has an edge from r1, but only the even sinks demand s2.
        assert affected == {(f"sink{i}", "s2") for i in (0, 2, 4)}

    def test_demand_change_affects_only_that_demand(self):
        new = small_problem()
        delta = ProblemDelta(demands_changed={("sink3", "s1"): (0.9, 0.95)})
        assert affected_demand_keys(delta, new) == {("sink3", "s1")}


class TestEngineOptions:
    def test_unknown_option_rejected(self):
        problem = small_problem()
        standing = get_designer("sharded:greedy").design(
            DesignRequest(problem=problem, options={"shards": 2})
        )
        with pytest.raises(ValueError, match="unknown option"):
            design_incremental(standing, problem, options={"bogus": 1})

    @pytest.mark.parametrize("removed", ["resolve", "stitch_repair"])
    def test_removed_options_rejected(self, removed):
        problem = small_problem()
        standing = get_designer("sharded:greedy").design(
            DesignRequest(problem=problem, options={"shards": 2})
        )
        with pytest.raises(ValueError, match=f"unknown option.*'{removed}'"):
            design_incremental(standing, problem, options={removed: "full"})
        with pytest.raises(ValueError, match=f"unknown option.*'{removed}'"):
            get_designer("sharded:greedy").design(
                DesignRequest(problem=problem, options={removed: True})
            )

    def test_bound_only_inner_rejected(self):
        problem = small_problem()
        standing = get_designer("sharded:greedy").design(
            DesignRequest(problem=problem, options={"shards": 2})
        )
        with pytest.raises(ValueError, match="bound only"):
            design_incremental(standing, problem, strategy="lp-bound")

    def test_structural_delta_falls_back(self):
        problem = small_problem()
        standing = get_designer("sharded:greedy").design(
            DesignRequest(problem=problem, options={"shards": 2})
        )
        new = small_problem()
        new.add_reflector("r-extra", cost=1.0, fanout=2)
        new.add_stream_edge("s1", "r-extra", loss_probability=0.01, cost=1.0)
        result = design_incremental(
            standing, new, previous_problem=problem, options={"shards": 2},
        )
        assert result.metadata["incremental_fallback"] == "structural-delta"
        assert result.strategy == "incremental:greedy"

    def test_dirty_fraction_falls_back(self):
        problem = small_problem()
        standing = get_designer("sharded:greedy").design(
            DesignRequest(problem=problem, options={"shards": 2})
        )
        new = churned(problem)
        result = design_incremental(
            standing,
            new,
            previous_problem=problem,
            options={"shards": 2, "full_redesign_threshold": 0.0},
        )
        assert result.metadata["incremental_fallback"] == "dirty-fraction"


class TestStitchAssignments:
    def test_wrong_shard_count_rejected(self):
        problem = small_problem()
        plan = build_partition(problem, shards=3)
        with pytest.raises(ValueError, match="shard"):
            stitch_assignments(problem, plan, [{}])
