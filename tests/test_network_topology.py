"""Tests for the overlay topology model (repro.network.topology)."""

from __future__ import annotations

import pytest

from repro.network.topology import (
    NodeRole,
    OverlayLink,
    OverlayNode,
    OverlayTopology,
    StreamSpec,
)


def build_small_topology() -> OverlayTopology:
    topo = OverlayTopology(name="small")
    topo.add_node(OverlayNode("src", NodeRole.SOURCE, location=(0.0, 0.0), isp="ispA"))
    topo.add_node(
        OverlayNode("ref1", NodeRole.REFLECTOR, location=(0.5, 0.5), isp="ispA", capacity=4, cost=12.0)
    )
    topo.add_node(
        OverlayNode("ref2", NodeRole.REFLECTOR, location=(0.6, 0.4), isp="ispB", capacity=3, cost=9.0)
    )
    topo.add_node(OverlayNode("edge1", NodeRole.SINK, location=(1.0, 1.0), isp="ispB"))
    topo.add_node(OverlayNode("edge2", NodeRole.SINK, location=(0.9, 0.1), isp="ispA"))
    topo.add_link(OverlayLink("src", "ref1", loss_probability=0.01, cost=1.0))
    topo.add_link(OverlayLink("src", "ref2", loss_probability=0.02, cost=1.2))
    topo.add_link(OverlayLink("ref1", "edge1", loss_probability=0.03, cost=0.5))
    topo.add_link(OverlayLink("ref1", "edge2", loss_probability=0.04, cost=0.6))
    topo.add_link(OverlayLink("ref2", "edge1", loss_probability=0.05, cost=0.4))
    topo.add_link(OverlayLink("ref2", "edge2", loss_probability=0.02, cost=0.3))
    topo.add_stream(
        StreamSpec(
            name="event",
            source="src",
            bandwidth=2.0,
            subscribers={"edge1": 0.99, "edge2": 0.995},
        )
    )
    return topo


class TestTopologyBuilding:
    def test_roles_and_counts(self):
        topo = build_small_topology()
        assert len(topo.sources) == 1
        assert len(topo.reflectors) == 2
        assert len(topo.sinks) == 2
        summary = topo.size_summary()
        assert summary["links"] == 6
        assert summary["demands"] == 2

    def test_duplicate_node_rejected(self):
        topo = OverlayTopology()
        topo.add_node(OverlayNode("x", NodeRole.SOURCE))
        with pytest.raises(ValueError):
            topo.add_node(OverlayNode("x", NodeRole.SINK))

    def test_link_role_validation(self):
        topo = OverlayTopology()
        topo.add_node(OverlayNode("src", NodeRole.SOURCE))
        topo.add_node(OverlayNode("edge", NodeRole.SINK))
        with pytest.raises(ValueError):
            topo.add_link(OverlayLink("src", "edge", 0.1, 1.0))  # source->sink forbidden
        with pytest.raises(KeyError):
            topo.add_link(OverlayLink("src", "missing", 0.1, 1.0))

    def test_duplicate_link_rejected(self):
        topo = build_small_topology()
        with pytest.raises(ValueError):
            topo.add_link(OverlayLink("src", "ref1", 0.1, 1.0))

    def test_link_validation_ranges(self):
        with pytest.raises(ValueError):
            OverlayLink("a", "b", loss_probability=1.2, cost=1.0)
        with pytest.raises(ValueError):
            OverlayLink("a", "b", loss_probability=0.2, cost=-1.0)

    def test_stream_validation(self):
        topo = build_small_topology()
        with pytest.raises(ValueError):
            topo.add_stream(StreamSpec(name="event", source="src"))  # duplicate name
        with pytest.raises(ValueError):
            topo.add_stream(StreamSpec(name="bad", source="ref1"))  # not a source node
        with pytest.raises(ValueError):
            topo.add_stream(
                StreamSpec(name="bad2", source="src", subscribers={"ref1": 0.9})
            )  # subscriber must be a sink
        with pytest.raises(ValueError):
            topo.add_stream(
                StreamSpec(name="bad3", source="src", subscribers={"edge1": 1.5})
            )

    def test_link_queries(self):
        topo = build_small_topology()
        assert topo.link("src", "ref1").head == "ref1"
        assert len(topo.out_links("ref1")) == 2
        assert len([link for link in topo.links() if link.head == "edge1"]) == 2
        with pytest.raises(KeyError):
            topo.link("ref1", "src")
        with pytest.raises(KeyError):
            topo.link("edge1", "src")


class TestToProblem:
    def test_projection_structure(self):
        topo = build_small_topology()
        problem = topo.to_problem()
        assert problem.num_streams == 1
        assert problem.num_reflectors == 2
        assert problem.num_sinks == 2
        assert problem.num_demands == 2
        assert problem.fanout("ref1") == 4
        assert problem.reflector_cost("ref2") == 9.0
        assert problem.color("ref1") == "ispA"

    def test_stream_edge_cost_scaled_by_bandwidth(self):
        topo = build_small_topology()
        problem = topo.to_problem()
        # Link cost 1.0, bandwidth 2.0 -> stream edge cost 2.0.
        assert problem.stream_edge("event", "ref1").cost == pytest.approx(2.0)
        assert problem.stream_edge("event", "ref1").loss_probability == pytest.approx(0.01)

    def test_delivery_cost_scaled_per_stream(self):
        topo = build_small_topology()
        problem = topo.to_problem()
        assert problem.delivery_cost("ref2", "edge2", "event") == pytest.approx(0.3 * 2.0)
        assert problem.delivery_loss("ref2", "edge2") == pytest.approx(0.02)

    def test_demand_thresholds_carried_over(self):
        topo = build_small_topology()
        problem = topo.to_problem()
        thresholds = {d.sink: d.success_threshold for d in problem.demands}
        assert thresholds == {"edge1": 0.99, "edge2": 0.995}

    def test_resulting_problem_is_designable(self):
        from repro import DesignParameters, DesignRequest, run_request

        problem = build_small_topology().to_problem()
        result = run_request(DesignRequest(problem, DesignParameters(seed=0)))
        assert result.solution.assignments
