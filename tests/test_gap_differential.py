"""Differential tests: the GAP LP against a successive-shortest-path oracle.

:func:`repro.core.gap.solve_gap` solves the Figure-2 network as one LP.  The
oracle in ``tests/gap_oracle.py`` solves the same arc arrays combinatorially.
Both must reach the same flow value and cost on random Figure-2 networks
(tight fanouts leave boxes unserved; tied weights and costs make the optimum
non-unique), and the same assignments on the pipeline's own GAP inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from gap_oracle import oracle_assignments, ssp_min_cost_max_flow
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_designs import GOLDEN_SEED, WORKLOADS

from repro.api.pipeline import DesignPipeline
from repro.core.algorithm import DesignParameters
from repro.core.gap import SINK, build_gap_network, check_gap_flow, solve_gap
from repro.core.lp_solution import RoundedSolution
from repro.core.problem import OverlayDesignProblem
from repro.workloads.as_geo import AsGeoConfig, generate_as_geo_problem
from repro.workloads.internet_scale import (
    InternetScaleConfig,
    generate_internet_scale_problem,
)

#: Few distinct values, so equal weights and equal costs are common.
_STREAM_LOSSES = (0.01, 0.05)
_DELIVERY_LOSSES = (0.01, 0.05, 0.2)
_COSTS = (0.0, 1.0, 2.0)
_MASSES = (0.25, 0.5, 0.75, 1.0)


@st.composite
def figure2_inputs(draw) -> tuple[OverlayDesignProblem, RoundedSolution]:
    """A small instance plus an ``x_bar`` over its delivery edges."""
    num_reflectors = draw(st.integers(1, 4))
    problem = OverlayDesignProblem()
    problem.add_stream("s")
    for i in range(num_reflectors):
        # Fanout 1-2 against up to 6 sinks: boxes routinely go unserved.
        problem.add_reflector(f"r{i}", cost=1.0, fanout=draw(st.integers(1, 2)))
        problem.add_stream_edge("s", f"r{i}", draw(st.sampled_from(_STREAM_LOSSES)), 1.0)
    x = {}
    for j in range(draw(st.integers(1, 6))):
        sink = f"k{j}"
        problem.add_sink(sink)
        problem.add_demand(sink, "s", 0.99)
        candidates = draw(
            st.lists(st.integers(0, num_reflectors - 1), min_size=1, max_size=4, unique=True)
        )
        for i in candidates:
            problem.add_delivery_edge(
                f"r{i}",
                sink,
                draw(st.sampled_from(_DELIVERY_LOSSES)),
                draw(st.sampled_from(_COSTS)),
            )
            x[(f"r{i}", (sink, "s"))] = draw(st.sampled_from(_MASSES))
    return problem, RoundedSolution(z={}, y={}, x=x)


def _value_and_cost(gap, flow: np.ndarray) -> tuple[float, float]:
    return float(flow[gap.head == SINK].sum()), float(gap.cost @ flow)


@settings(max_examples=80, deadline=None)
@given(figure2_inputs())
def test_lp_matches_oracle_on_random_figure2_networks(inputs):
    """Equal flow value and cost; the LP flow is integral and feasible.

    ``solve_gap`` raises :class:`~repro.core.gap.GapFlowError` when the raw LP
    values are not an integral feasible flow, so reaching the asserts already
    shows that.
    """
    problem, rounded = inputs
    gap = build_gap_network(problem, rounded)
    result = solve_gap(problem, gap)
    oracle = ssp_min_cost_max_flow(gap)
    check_gap_flow(gap, oracle)
    lp_value, lp_cost = _value_and_cost(gap, result.flow)
    oracle_value, oracle_cost = _value_and_cost(gap, oracle)
    assert lp_value == pytest.approx(oracle_value, abs=1e-9)
    assert lp_cost == pytest.approx(oracle_cost, abs=1e-9)
    assert result.flow_value == lp_value
    assert result.boxes_served == round(lp_value)


def test_tight_fanout_serves_the_cheapest_maximum_flow():
    """One fanout-1 reflector, three sinks: two boxes fit, the cheap ones win."""
    problem = OverlayDesignProblem()
    problem.add_stream("s")
    problem.add_reflector("r", cost=1.0, fanout=1)
    problem.add_stream_edge("s", "r", 0.01, 1.0)
    x = {}
    for sink, cost in (("a", 3.0), ("b", 1.0), ("c", 2.0)):
        problem.add_sink(sink)
        problem.add_demand(sink, "s", 0.99)
        problem.add_delivery_edge("r", sink, 0.01, cost)
        x[("r", (sink, "s"))] = 1.0
    gap = build_gap_network(problem, RoundedSolution(z={}, y={}, x=x))
    result = solve_gap(problem, gap)
    assert (result.boxes_served, result.boxes_total) == (2, 3)
    assert result.assignments == {("r", ("b", "s")), ("r", ("c", "s"))}
    assert result.assignments == oracle_assignments(gap, ssp_min_cost_max_flow(gap))


def _as_geo(seed: int) -> OverlayDesignProblem:
    return generate_as_geo_problem(AsGeoConfig(num_sinks=60, num_metros=8), rng=seed)[0]


def _internet_scale(seed: int) -> OverlayDesignProblem:
    config = InternetScaleConfig(num_sinks=60, sinks_per_metro=15, num_isps=3)
    return generate_internet_scale_problem(config, rng=seed)[0]


_INSTANCES = {
    **{f"golden-{name}": build for name, build in WORKLOADS.items()},
    **{f"as_geo-{seed}": (lambda seed=seed: _as_geo(seed)) for seed in (0, 1)},
    **{f"internet_scale-{seed}": (lambda seed=seed: _internet_scale(seed)) for seed in (0, 1)},
}


@pytest.mark.parametrize("name", sorted(_INSTANCES))
def test_pipeline_gap_assignments_match_oracle(name):
    """The design pipeline's GAP step picks exactly the oracle's pairs."""
    problem = _INSTANCES[name]()
    context = DesignPipeline.standard().run(problem, DesignParameters(seed=GOLDEN_SEED))
    gap = build_gap_network(problem, context.rounded, context.parameters.keep_degenerate_box)
    oracle = ssp_min_cost_max_flow(gap)
    assert context.gap.assignments == oracle_assignments(gap, oracle)
    assert _value_and_cost(gap, context.gap.flow) == pytest.approx(
        _value_and_cost(gap, oracle), abs=1e-9
    )
