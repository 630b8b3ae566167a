"""Failure events, correlated samplers and the scenario catalogue.

Includes the *golden* regression tests for the fixed-seed samplers: the exact
event windows are pinned so a silent change to the correlated-failure models
(or to the truncation semantics at the session boundary) cannot slip through.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import DesignRequest, run_request
from repro.simulation import (
    FailureEvent,
    FailureSchedule,
    MonteCarloConfig,
    evaluate_design,
    failure_scenario_names,
    get_failure_scenario,
    realize_scenario,
    run_monte_carlo,
    sample_flash_crowd_congestion,
    sample_isp_outage_schedule,
    sample_regional_outage_schedule,
)
from repro.network.loss import BernoulliLossModel, GilbertElliottLossModel
from repro.core.problem import OverlayDesignProblem
from repro.simulation.montecarlo import link_profiles
from repro.simulation.scenarios import hot_sinks, infer_clusters
from repro.workloads import AkamaiLikeConfig, generate_akamai_like_topology


@pytest.fixture(scope="module")
def akamai():
    topology, _registry = generate_akamai_like_topology(AkamaiLikeConfig(), rng=0)
    problem = topology.to_problem()
    return problem, run_request(DesignRequest(problem=problem, strategy="greedy")).solution


class TestFailureEvent:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            FailureEvent("weird", "x", 0, 10)
        with pytest.raises(ValueError):
            FailureEvent("isp_outage", "x", 10, 5)

    def test_severity_rules(self):
        with pytest.raises(ValueError):
            FailureEvent("isp_outage", "x", 0, 10, severity=0.5)
        with pytest.raises(ValueError):
            FailureEvent("link_congestion", "x", 0, 10, severity=0.0)
        with pytest.raises(ValueError):
            FailureEvent("link_congestion", "x", 0, 10, severity=1.5)
        # Congestion with the outage-shaped default (1.0) is a silent
        # blackout, not congestion -- rejected; use node_outage instead.
        with pytest.raises(ValueError, match="node_outage"):
            FailureEvent("link_congestion", "x", 0, 10)
        assert FailureEvent("link_congestion", "x", 0, 10, severity=0.3).severity == 0.3

    def test_node_outage_matches_either_endpoint(self):
        index = FailureSchedule([FailureEvent("node_outage", "edge1", 0, 10)]).link_index()
        assert index.link_events("r1", "edge1") == (0,)
        assert index.link_events("edge1", "r1") == (0,)
        assert index.link_events("r1", "edge2") == ()

    def test_congestion_matches_head_only(self):
        index = FailureSchedule(
            [FailureEvent("link_congestion", "edge1", 0, 10, severity=0.3)]
        ).link_index()
        assert index.link_events("r1", "edge1") == (0,)
        assert index.link_events("edge1", "r1") == ()

    def test_event_outlasting_session_is_truncated_not_dropped(self):
        """Golden: an interval ending after num_packets applies to its prefix."""
        event = FailureEvent("isp_outage", "ispA", 900, 1200)
        mask = event.window_mask(1000)
        assert mask.sum() == 100
        assert mask[900:].all() and not mask[:900].any()


class TestFailureSchedule:
    def test_validate_rejects_event_beyond_session(self):
        schedule = FailureSchedule([FailureEvent("reflector_crash", "r1", 1000, 1200)])
        with pytest.raises(ValueError, match="silently never fire"):
            schedule.validate_for_session(1000)
        schedule.validate_for_session(1001)  # starts inside: fine

    def test_engine_rejects_out_of_session_events(self, tiny_problem):
        from repro.core.solution import OverlaySolution

        solution = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1"]})
        schedule = FailureSchedule([FailureEvent("reflector_crash", "r1", 500, 600)])
        with pytest.raises(ValueError, match="silently never fire"):
            run_monte_carlo(
                tiny_problem,
                solution,
                MonteCarloConfig(num_packets=100, trials=2, window=8, failures=schedule),
            )

    def test_link_loss_profile_combines_outage_and_congestion(self):
        schedule = FailureSchedule(
            [
                FailureEvent("node_outage", "edge1", 0, 4),
                FailureEvent("link_congestion", "edge1", 2, 8, severity=0.5),
                FailureEvent("link_congestion", "edge1", 6, 8, severity=0.5),
            ]
        )
        index = schedule.link_index()
        profile = index.loss_profile(index.link_events("r1", "edge1"), 10)
        assert profile[:4].tolist() == [1.0] * 4  # outage dominates
        assert profile[4:6].tolist() == [0.5, 0.5]
        assert profile[6:8] == pytest.approx([0.75, 0.75])  # independent combine
        assert profile[8:].tolist() == [0.0, 0.0]
        assert index.loss_profile(index.link_events("r1", "edge2"), 10) is None
        assert any(event.kind == "link_congestion" for event in schedule.events)

    def test_outage_mask_ignores_congestion(self):
        schedule = FailureSchedule(
            [FailureEvent("link_congestion", "edge1", 0, 10, severity=0.9)]
        )
        [(row, hard, segments)] = link_profiles([("r1", "edge1")], schedule.link_index(), 10)
        assert (row, hard, segments) == (0, None, [(0, 10, 0.9)])


class TestGoldenSamplers:
    """Fixed-seed expected outage windows for the correlated samplers."""

    def test_isp_outage_schedule_golden(self):
        schedule = sample_isp_outage_schedule(
            ["ispA", "ispB", "ispC"], 1000, np.random.default_rng(7)
        )
        assert [(e.kind, e.target, e.start, e.end) for e in schedule.events] == [
            ("isp_outage", "ispC", 213, 465)
        ]
        # A quieter draw: no ISP fails.
        quiet = sample_isp_outage_schedule(
            ["ispA", "ispB", "ispC"], 1000, np.random.default_rng(42)
        )
        assert len(quiet) == 0

    def test_regional_outage_schedule_golden(self):
        schedule = sample_regional_outage_schedule(
            {"east": ["r1", "edge1"], "west": ["r2", "edge2"]},
            1000,
            np.random.default_rng(3),
        )
        assert [(e.kind, e.target, e.start, e.end) for e in schedule.events] == [
            ("node_outage", "r2", 59, 369),
            ("node_outage", "edge2", 59, 369),
        ]

    def test_flash_crowd_congestion_golden(self):
        schedule = sample_flash_crowd_congestion(
            ["edge1", "edge2"], 1000, np.random.default_rng(5), num_waves=2
        )
        events = [(e.kind, e.target, e.start, e.end) for e in schedule.events]
        assert events == [
            ("link_congestion", "edge1", 17, 266),
            ("link_congestion", "edge2", 17, 266),
            ("link_congestion", "edge1", 704, 833),
            ("link_congestion", "edge2", 704, 833),
        ]
        assert [e.severity for e in schedule.events] == pytest.approx(
            [0.353218, 0.305018, 0.325507, 0.330779], abs=1e-6
        )

    def test_isp_shock_raises_joint_failures(self):
        isps = [f"isp{i}" for i in range(4)]
        rng = np.random.default_rng(0)
        sizes = [
            len(sample_isp_outage_schedule(isps, 1000, rng, shock_probability=1.0))
            for _ in range(200)
        ]
        rng = np.random.default_rng(0)
        quiet = [
            len(sample_isp_outage_schedule(isps, 1000, rng, shock_probability=0.0))
            for _ in range(200)
        ]
        assert np.mean(sizes) > np.mean(quiet) + 1.0


class TestCatalogue:
    def test_builtin_names(self):
        names = failure_scenario_names()
        assert names[:5] == [
            "baseline",
            "isp-outage",
            "regional-failure",
            "flash-crowd",
            "bursty-links",
        ]
        # The shipped DSL scenario library auto-registers behind the built-ins.
        assert "targeted-attack-k2" in names
        assert "perfect-storm" in names

    def test_unknown_scenario_errors(self):
        with pytest.raises(KeyError, match="unknown failure scenario"):
            get_failure_scenario("nope")

    def test_realizations(self, akamai):
        problem, _solution = akamai
        for name in failure_scenario_names():
            realization = realize_scenario(name, problem, 800, np.random.default_rng(1))
            realization.failures.validate_for_session(800)
            if name in ("bursty-links", "perfect-storm"):
                assert isinstance(realization.loss_model, GilbertElliottLossModel)
            else:
                assert isinstance(realization.loss_model, BernoulliLossModel)
            if name == "flash-crowd":
                assert len(realization.failures) > 0
                kinds = {event.kind for event in realization.failures.events}
                assert "link_congestion" in kinds

    def test_realization_deterministic(self, akamai):
        problem, _solution = akamai
        a = realize_scenario("isp-outage", problem, 800, np.random.default_rng(9))
        b = realize_scenario("isp-outage", problem, 800, np.random.default_rng(9))
        assert a.failures.events == b.failures.events

    def test_infer_clusters_and_hot_sinks(self, akamai):
        problem, _solution = akamai
        clusters = infer_clusters(problem)
        # Every akamai node is named <colo>-<machine>, so clusters group them.
        assert all(name.startswith("colo") for name in clusters)
        assert sum(len(nodes) for nodes in clusters.values()) == (
            problem.num_reflectors + problem.num_sinks
        )
        hot = hot_sinks(problem)
        assert hot and set(hot) <= set(problem.sinks)

    def test_infer_clusters_without_prefix_degrades_to_singletons(self):
        problem = OverlayDesignProblem(name="unstructured")
        problem.add_stream("stream0", bandwidth=1.0)
        for name in ("alpha", "beta", "gamma"):
            problem.add_reflector(name, cost=1.0, fanout=4)
            problem.add_stream_edge("stream0", name, 0.01, 1.0)
        problem.add_sink("delta")
        for name in ("alpha", "beta", "gamma"):
            problem.add_delivery_edge(name, "delta", 0.01, 1.0)
        problem.add_demand("delta", "stream0", 0.9)
        clusters = infer_clusters(problem)
        # No '-' anywhere: every node is its own singleton cluster.
        assert clusters == {
            "alpha": ["alpha"],
            "beta": ["beta"],
            "gamma": ["gamma"],
            "delta": ["delta"],
        }

    def test_infer_clusters_mixed_naming(self):
        problem = OverlayDesignProblem(name="mixed")
        problem.add_stream("stream0", bandwidth=1.0)
        # Multi-hyphen names split on the FIRST '-'; bare names are
        # singletons; a one-node cluster stays a valid cluster.
        for name in ("east-r0", "east-r1", "west-r0", "lonely"):
            problem.add_reflector(name, cost=1.0, fanout=4)
            problem.add_stream_edge("stream0", name, 0.01, 1.0)
        problem.add_sink("east-s-extra")
        for name in ("east-r0", "east-r1", "west-r0", "lonely"):
            problem.add_delivery_edge(name, "east-s-extra", 0.01, 1.0)
        problem.add_demand("east-s-extra", "stream0", 0.9)
        clusters = infer_clusters(problem)
        assert clusters == {
            "east": ["east-r0", "east-r1", "east-s-extra"],
            "west": ["west-r0"],
            "lonely": ["lonely"],
        }

    def test_hot_sinks_all_ties_break_by_name(self):
        problem = OverlayDesignProblem(name="ties")
        problem.add_stream("stream0", bandwidth=1.0)
        problem.add_reflector("r0", cost=1.0, fanout=16)
        problem.add_stream_edge("stream0", "r0", 0.01, 1.0)
        sinks = ["s-zeta", "s-alpha", "s-mid", "s-beta"]
        for sink in sinks:
            problem.add_sink(sink)
            problem.add_delivery_edge("r0", sink, 0.01, 1.0)
            problem.add_demand(sink, "stream0", 0.9)  # one demand each: all tied
        # fraction=0.5 of 4 sinks keeps 2; the tie breaks lexicographically,
        # deterministically -- not by insertion order.
        assert hot_sinks(problem, fraction=0.5) == ["s-alpha", "s-beta"]
        assert hot_sinks(problem, fraction=1.0) == sorted(sinks)


class TestEvaluateDesign:
    def test_full_catalogue_sweep(self, akamai):
        problem, solution = akamai
        results = evaluate_design(
            problem, solution, trials=6, num_packets=400, window=80, seed=0
        )
        assert sorted(results) == sorted(failure_scenario_names())
        for metrics in results.values():
            assert 0.0 <= metrics["mean_loss"] <= 1.0
            assert 0.0 <= metrics["fraction_meeting_threshold"] <= 1.0
            assert metrics["trials"] == 6

    def test_subset_and_determinism(self, akamai):
        problem, solution = akamai
        kwargs = dict(trials=5, num_packets=400, window=80, seed=3)
        once = evaluate_design(problem, solution, ("baseline", "flash-crowd"), **kwargs)
        again = evaluate_design(problem, solution, ("flash-crowd",), **kwargs)
        assert once["flash-crowd"] == again["flash-crowd"]

    def test_unknown_scenario_rejected(self, akamai):
        problem, solution = akamai
        with pytest.raises(KeyError):
            evaluate_design(problem, solution, ("nope",), trials=2, num_packets=100)

    def test_stress_scenarios_add_loss(self, akamai):
        problem, solution = akamai
        results = evaluate_design(
            problem, solution, trials=12, num_packets=800, window=80, seed=1
        )
        assert results["flash-crowd"]["mean_loss"] > results["baseline"]["mean_loss"]
