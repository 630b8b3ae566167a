"""The hand-built "tiny" instance with known numbers.

One stream, three reflectors, two sinks.  Small enough to check every LP
coefficient by hand, rich enough to exercise all constraint families; it is
the instance used throughout the test suite, the README quickstart and the
documentation examples.
"""

from __future__ import annotations

from repro.core.problem import OverlayDesignProblem


def build_tiny_problem() -> OverlayDesignProblem:
    """Hand-built 1-stream / 3-reflector / 2-sink instance with known numbers."""
    problem = OverlayDesignProblem(name="tiny")
    problem.add_stream("s")
    problem.add_reflector("r1", cost=10.0, fanout=3)
    problem.add_reflector("r2", cost=6.0, fanout=2)
    problem.add_reflector("r3", cost=4.0, fanout=2)
    problem.add_sink("d1")
    problem.add_sink("d2")
    problem.add_stream_edge("s", "r1", loss_probability=0.01, cost=1.0)
    problem.add_stream_edge("s", "r2", loss_probability=0.02, cost=0.8)
    problem.add_stream_edge("s", "r3", loss_probability=0.05, cost=0.5)
    problem.add_delivery_edge("r1", "d1", loss_probability=0.02, cost=0.6)
    problem.add_delivery_edge("r1", "d2", loss_probability=0.03, cost=0.7)
    problem.add_delivery_edge("r2", "d1", loss_probability=0.05, cost=0.4)
    problem.add_delivery_edge("r2", "d2", loss_probability=0.04, cost=0.4)
    problem.add_delivery_edge("r3", "d1", loss_probability=0.08, cost=0.2)
    problem.add_delivery_edge("r3", "d2", loss_probability=0.10, cost=0.2)
    problem.add_demand("d1", "s", success_threshold=0.995)
    problem.add_demand("d2", "s", success_threshold=0.99)
    return problem


__all__ = ["build_tiny_problem"]
