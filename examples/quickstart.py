"""Quickstart: design a small overlay multicast network and inspect the result.

This example builds, by hand, the kind of instance the paper's Figure 1
sketches -- one live stream, a handful of candidate reflectors, a few
edgeserver regions with quality requirements -- runs the SPAA'03 approximation
algorithm, and prints the resulting design, its cost relative to the LP lower
bound, and the reliability delivered to every edgeserver.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import DesignParameters, DesignRequest, OverlayDesignProblem, run_request
from repro.analysis import check_paper_guarantees, format_table


def build_problem() -> OverlayDesignProblem:
    """One concert stream, four candidate reflectors, five edge regions."""
    problem = OverlayDesignProblem(name="quickstart")
    problem.add_stream("concert")

    reflectors = {
        # name: (operating cost, fanout, ISP, loss from the entrypoint, feed cost)
        "nyc-r1": (12.0, 6, "isp-alpha", 0.005, 1.0),
        "lon-r1": (10.0, 6, "isp-beta", 0.010, 1.2),
        "fra-r1": (9.0, 4, "isp-alpha", 0.015, 1.1),
        "sjc-r1": (11.0, 4, "isp-gamma", 0.020, 0.9),
    }
    for name, (cost, fanout, isp, loss, feed_cost) in reflectors.items():
        problem.add_reflector(name, cost=cost, fanout=fanout, color=isp)
        problem.add_stream_edge("concert", name, loss_probability=loss, cost=feed_cost)

    # Edge regions with their measured loss from each reflector and the
    # bandwidth price of delivering one stream there.
    edges = {
        "boston": {"nyc-r1": (0.01, 0.4), "lon-r1": (0.05, 0.8), "sjc-r1": (0.04, 0.7)},
        "paris": {"lon-r1": (0.02, 0.4), "fra-r1": (0.02, 0.5), "nyc-r1": (0.06, 0.9)},
        "berlin": {"fra-r1": (0.01, 0.3), "lon-r1": (0.03, 0.5), "nyc-r1": (0.07, 0.9)},
        "seattle": {"sjc-r1": (0.02, 0.4), "nyc-r1": (0.05, 0.8)},
        "tokyo": {"sjc-r1": (0.04, 0.9), "lon-r1": (0.09, 1.3), "fra-r1": (0.08, 1.2)},
    }
    for sink, reachable in edges.items():
        problem.add_sink(sink)
        for reflector, (loss, cost) in reachable.items():
            problem.add_delivery_edge(reflector, sink, loss_probability=loss, cost=cost)
        problem.add_demand(sink, "concert", success_threshold=0.995)
    return problem


def main() -> None:
    problem = build_problem()
    print(f"Instance: {problem}")

    result = run_request(
        DesignRequest(problem, DesignParameters(seed=7, repair_shortfall=True))
    )
    solution = result.solution

    print("\n=== Design ===")
    print(f"Reflectors built: {sorted(solution.built_reflectors)}")
    rows = []
    for demand in problem.demands:
        rows.append(
            {
                "edge region": demand.sink,
                "served by": ", ".join(solution.reflectors_serving(demand)),
                "required success": demand.success_threshold,
                "achieved success": solution.success_probability(demand),
            }
        )
    print(format_table(rows, float_format=".5f"))

    print("\n=== Cost ===")
    print(f"Total cost           : {solution.total_cost():.2f}")
    print(f"LP lower bound (OPT>=): {result.lower_bound:.2f}")
    print(f"Cost ratio           : {result.cost_ratio:.3f}")
    print(f"(paper bound: c*log n = {result.report.rounded.multiplier:.1f})")

    print("\n=== Paper guarantees on this run ===")
    for check in check_paper_guarantees(problem, result):
        status = "OK " if check.holds else "FAIL"
        print(f"[{status}] {check.name}: measured {check.measured:.3f} vs bound {check.bound:.3f}")


if __name__ == "__main__":
    main()
