"""Tests for the workload generators (repro.workloads)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import NodeRole
from repro.workloads import (
    AkamaiLikeConfig,
    FlashCrowdConfig,
    RandomInstanceConfig,
    bandwidth_price,
    distance,
    generate_akamai_like_topology,
    generate_flash_crowd_scenario,
    loss_probability_from_distance,
    random_problem,
    small_example_problem,
    zipf_viewership,
)


class TestSyntheticPrimitives:
    def test_distance(self):
        assert distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_loss_from_distance_bounds(self, rng):
        for _ in range(200):
            value = loss_probability_from_distance(rng.uniform(0, 2), rng)
            assert 0.0005 <= value <= 0.15

    def test_loss_grows_with_distance_on_average(self, rng):
        near = np.mean([loss_probability_from_distance(0.05, rng) for _ in range(300)])
        far = np.mean([loss_probability_from_distance(1.5, rng) for _ in range(300)])
        assert far > near

    def test_loss_rejects_negative_distance(self, rng):
        with pytest.raises(ValueError):
            loss_probability_from_distance(-1.0, rng)

    def test_bandwidth_price_positive_and_scales(self, rng):
        cheap = np.mean([bandwidth_price(1.0, rng) for _ in range(200)])
        pricey = np.mean([bandwidth_price(2.0, rng) for _ in range(200)])
        assert cheap > 0
        assert pricey > cheap
        with pytest.raises(ValueError):
            bandwidth_price(0.0, rng)

    def test_zipf_viewership_shape(self, rng):
        counts = zipf_viewership(5, 100, rng)
        assert len(counts) == 5
        assert all(1 <= c <= 100 for c in counts)
        assert counts[0] >= counts[-1]
        with pytest.raises(ValueError):
            zipf_viewership(0, 10, rng)


class TestRandomInstances:
    def test_sizes_match_config(self):
        config = RandomInstanceConfig(num_streams=3, num_reflectors=7, num_sinks=9)
        problem = random_problem(config, rng=0)
        assert problem.num_streams == 3
        assert problem.num_reflectors == 7
        assert problem.num_sinks == 9
        assert problem.num_demands == 9

    def test_always_feasible(self):
        for seed in range(8):
            problem = random_problem(RandomInstanceConfig(), rng=seed)
            assert problem.feasibility_report() == []
            problem.validate()

    def test_deterministic_given_seed(self):
        a = random_problem(RandomInstanceConfig(), rng=42)
        b = random_problem(RandomInstanceConfig(), rng=42)
        assert a.demands == b.demands
        assert a.reflectors == b.reflectors
        assert {(e.stream, e.reflector): e.cost for e in a.stream_edges()} == {
            (e.stream, e.reflector): e.cost for e in b.stream_edges()
        }

    def test_colors_assigned_when_requested(self):
        problem = random_problem(RandomInstanceConfig(num_colors=3), rng=1)
        colors = {problem.color(r) for r in problem.reflectors}
        assert colors == {"isp0", "isp1", "isp2"}
        uncolored = random_problem(RandomInstanceConfig(num_colors=0), rng=1)
        assert all(uncolored.color(r) is None for r in uncolored.reflectors)

    def test_min_candidates_respected(self):
        config = RandomInstanceConfig(
            stream_edge_density=0.05, delivery_edge_density=0.05, min_candidates_per_demand=2
        )
        problem = random_problem(config, rng=3)
        for demand in problem.demands:
            assert len(problem.candidate_reflectors(demand)) >= 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RandomInstanceConfig(num_streams=0)
        with pytest.raises(ValueError):
            RandomInstanceConfig(stream_edge_density=0.0)

    def test_small_example_problem_stable(self):
        problem = small_example_problem(0)
        assert problem.num_demands == 6
        problem.validate()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_generated_instances_valid(self, seed):
        config = RandomInstanceConfig(num_streams=2, num_reflectors=5, num_sinks=6)
        problem = random_problem(config, rng=seed)
        problem.validate()
        assert problem.feasibility_report() == []
        for demand in problem.demands:
            assert 0.0 < demand.success_threshold < 1.0


class TestAkamaiLike:
    def test_topology_structure(self):
        config = AkamaiLikeConfig(num_regions=2, colos_per_region=3, num_isps=2)
        topology, registry = generate_akamai_like_topology(config, rng=0)
        assert len(topology.reflectors) == 2 * 3 * config.reflectors_per_colo
        assert len(topology.sinks) == 2 * 3
        assert len(topology.sources) == config.num_sources
        assert len(registry) == 2
        for node in topology.reflectors:
            assert node.isp in registry
            assert node.capacity == config.reflector_fanout

    def test_resulting_problem_feasible_and_designable(self):
        topology, _ = generate_akamai_like_topology(AkamaiLikeConfig(), rng=1)
        problem = topology.to_problem()
        assert problem.feasibility_report() == []
        problem.validate()

    def test_every_sink_has_at_least_two_candidate_reflectors(self):
        topology, _ = generate_akamai_like_topology(AkamaiLikeConfig(edge_density=0.1), rng=2)
        problem = topology.to_problem()
        for demand in problem.demands:
            assert len(problem.candidate_reflectors(demand)) >= 2

    def test_deterministic_given_seed(self):
        a, _ = generate_akamai_like_topology(AkamaiLikeConfig(), rng=5)
        b, _ = generate_akamai_like_topology(AkamaiLikeConfig(), rng=5)
        assert a.size_summary() == b.size_summary()
        assert {n.name for n in a.nodes()} == {n.name for n in b.nodes()}

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AkamaiLikeConfig(num_regions=0)
        with pytest.raises(ValueError):
            AkamaiLikeConfig(quality_mix=(0.5, 0.5, 0.5))


class TestFlashCrowd:
    def test_event_stream_added(self):
        config = FlashCrowdConfig(subscription_fraction=1.0)
        topology, _ = generate_flash_crowd_scenario(config, rng=0)
        streams = {s.name for s in topology.streams()}
        assert "flash-crowd-event" in streams
        event = topology.stream("flash-crowd-event")
        assert len(event.subscribers) == len(topology.nodes(NodeRole.SINK))
        assert all(t == config.event_threshold for t in event.subscribers.values())
        assert event.bandwidth == config.event_bandwidth

    def test_partial_subscription(self):
        config = FlashCrowdConfig(subscription_fraction=0.5)
        topology, _ = generate_flash_crowd_scenario(config, rng=1)
        event = topology.stream("flash-crowd-event")
        num_sinks = len(topology.nodes(NodeRole.SINK))
        assert 1 <= len(event.subscribers) <= num_sinks
        assert len(event.subscribers) == max(1, round(0.5 * num_sinks))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FlashCrowdConfig(event_bandwidth=0.0)
        with pytest.raises(ValueError):
            FlashCrowdConfig(event_threshold=1.0)
        with pytest.raises(ValueError):
            FlashCrowdConfig(subscription_fraction=0.0)

    def test_flash_crowd_problem_designable(self):
        from repro import DesignParameters, DesignRequest, run_request

        config = FlashCrowdConfig(
            deployment=AkamaiLikeConfig(num_regions=2, colos_per_region=2, num_streams=1)
        )
        topology, _ = generate_flash_crowd_scenario(config, rng=2)
        problem = topology.to_problem()
        result = run_request(DesignRequest(problem, DesignParameters(seed=0)))
        assert result.solution.assignments
