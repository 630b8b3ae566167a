"""Cost / reliability trade-off sweep.

The rounding multiplier ``c`` is the knob the paper exposes for trading cost
against constraint satisfaction ("the constants can be traded off in a manner
typical for multicriterion approximations").  This example sweeps ``c`` (and
the demands' quality thresholds) on a fixed Akamai-like deployment and prints
the resulting series: cost ratio versus the fraction of demands whose weight
requirement is fully met before any repair.

Run with::

    python examples/cost_reliability_tradeoff.py
"""

from __future__ import annotations

import numpy as np

from repro import DesignParameters, DesignRequest, run_request
from repro.analysis import format_table
from repro.core.rounding import RoundingParameters
from repro.workloads import AkamaiLikeConfig, generate_akamai_like_topology


def main() -> None:
    topology, _registry = generate_akamai_like_topology(
        AkamaiLikeConfig(num_regions=2, colos_per_region=4, num_isps=3, num_streams=3),
        rng=1,
    )
    problem = topology.to_problem()
    print(f"Instance: {problem}")

    print("\n=== Sweep of the rounding multiplier c (no repair) ===")
    rows = []
    for c in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
        costs, met_fractions, fanouts = [], [], []
        for seed in range(3):
            result = run_request(
                DesignRequest(
                    problem,
                    DesignParameters(
                        rounding=RoundingParameters(c=c, seed=seed),
                        repair_shortfall=False,
                        retry_rounding=False,
                    ),
                )
            )
            solution = result.solution
            costs.append(result.cost_ratio)
            met = np.mean(
                [solution.weight_satisfaction(d) >= 1.0 - 1e-9 for d in problem.demands]
            )
            met_fractions.append(met)
            fanouts.append(solution.max_fanout_factor())
        rows.append(
            {
                "c": c,
                "mean cost ratio": float(np.mean(costs)),
                "fraction fully met": float(np.mean(met_fractions)),
                "max fanout factor": float(np.max(fanouts)),
            }
        )
    print(format_table(rows, float_format=".3f"))
    print(
        "\nLarger multipliers buy reliability (more demands fully covered) at higher"
        "\ncost -- the multicriterion trade-off of Section 4.  The paper's analysis"
        "\nconstant (c = 64) is very conservative; small constants already satisfy"
        "\nmost demands on realistic instances."
    )

    print("\n=== Sweep of the quality threshold (c = 16, with repair) ===")
    rows = []
    for threshold in (0.95, 0.99, 0.995, 0.999):
        # Rebuild the problem with a uniform threshold for every demand.
        uniform = topology.to_problem(name=f"uniform-{threshold}")
        rebuilt = type(uniform)(name=uniform.name)
        for stream in uniform.streams:
            rebuilt.add_stream(stream, bandwidth=uniform.stream_bandwidth(stream))
        for reflector in uniform.reflectors:
            info = uniform.reflector_info(reflector)
            rebuilt.add_reflector(reflector, cost=info.cost, fanout=info.fanout, color=info.color)
        for sink in uniform.sinks:
            rebuilt.add_sink(sink)
        for edge in uniform.stream_edges():
            rebuilt.add_stream_edge(edge.stream, edge.reflector, edge.loss_probability, edge.cost)
        for reflector, sink in uniform.delivery_links():
            rebuilt.add_delivery_edge(
                reflector,
                sink,
                loss_probability=uniform.delivery_loss(reflector, sink),
                cost=uniform.delivery_cost(reflector, sink, uniform.streams[0]),
            )
        for demand in uniform.demands:
            rebuilt.add_demand(demand.sink, demand.stream, success_threshold=threshold)

        issues = rebuilt.feasibility_report()
        if issues:
            rows.append(
                {
                    "threshold": threshold,
                    "cost": float("nan"),
                    "mean paths per demand": float("nan"),
                    "note": f"{len(issues)} demands infeasible at this threshold",
                }
            )
            continue
        solution = run_request(
            DesignRequest(
                rebuilt,
                DesignParameters(
                    seed=0, repair_shortfall=True, rounding=RoundingParameters(c=16.0)
                ),
            )
        ).solution
        rows.append(
            {
                "threshold": threshold,
                "cost": solution.total_cost(),
                "mean paths per demand": float(
                    np.mean([len(solution.reflectors_serving(d)) for d in rebuilt.demands])
                ),
                "note": "",
            }
        )
    print(format_table(rows, float_format=".3f"))
    print(
        "\nTighter quality targets need more redundant paths per edge region and"
        "\ntherefore cost more -- the quality knob of Section 1.2 made quantitative."
    )


if __name__ == "__main__":
    main()
