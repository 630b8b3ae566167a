"""Flash-crowd event: provision a MacWorld-style live broadcast.

The paper's introduction motivates the overlay with the January 2002 MacWorld
keynote (50,000 viewers, 16.5 Gbps peak).  This example:

1. generates an Akamai-like deployment plus a high-bitrate "flash-crowd-event"
   stream subscribed by almost every edge region at a strict quality target;
2. designs the overlay with the SPAA'03 LP-rounding algorithm (plus the
   practical repair pass) and with the greedy / naive / single-tree baselines;
3. compares cost and analytic reliability across the designs;
4. replays the event through the packet-level simulator and reports the
   measured post-reconstruction loss at every edge region.

Run with::

    python examples/flash_crowd_event.py
"""

from __future__ import annotations

from repro import DesignParameters, DesignRequest, run_request
from repro.analysis import compare_designs, format_table
from repro.core.rounding import RoundingParameters
from repro.simulation import MonteCarloConfig, run_monte_carlo
from repro.workloads import AkamaiLikeConfig, FlashCrowdConfig, generate_flash_crowd_scenario


def main() -> None:
    config = FlashCrowdConfig(
        deployment=AkamaiLikeConfig(
            num_regions=3, colos_per_region=4, num_isps=3, num_streams=2
        ),
        event_bandwidth=4.0,
        event_threshold=0.999,
        subscription_fraction=0.95,
    )
    topology, _registry = generate_flash_crowd_scenario(config, rng=2026)
    problem = topology.to_problem()
    print(f"Deployment: {topology.size_summary()}")
    print(f"Design instance: {problem}")

    # --- Design with the paper's algorithm (plus practical repair) -----------
    result = run_request(
        DesignRequest(
            problem,
            DesignParameters(
                seed=7, repair_shortfall=True, rounding=RoundingParameters(c=16.0)
            ),
        )
    )
    designs = {"spaa03 (+repair)": result.solution}
    for label, strategy in (
        ("greedy", "greedy"),
        ("naive quality-first", "naive-quality-first"),
        ("single tree", "single-tree"),
    ):
        designs[label] = run_request(
            DesignRequest(problem, strategy=strategy)
        ).solution

    print("\n=== Cost vs reliability across designs ===")
    rows = compare_designs(problem, designs, lower_bound=result.lower_bound)
    print(
        format_table(
            rows,
            columns=[
                "design",
                "total_cost",
                "cost_ratio",
                "mean_success",
                "fraction_meeting_threshold",
                "mean_paths_per_demand",
                "max_fanout_factor",
            ],
        )
    )
    print(f"\nLP lower bound on any fully feasible design: {result.lower_bound:.2f}")

    # --- Replay the event through the packet simulator ----------------------
    print("\n=== Packet-level replay of the event stream (20k packets) ===")
    event_rows = []
    for name, solution in designs.items():
        sim = run_monte_carlo(
            problem, solution, MonteCarloConfig(num_packets=20_000, trials=1, seed=11)
        )
        viewers = [
            row for row, key in enumerate(sim.demand_keys) if key[1] == "flash-crowd-event"
        ]
        event_loss = sim.mean_loss_per_demand[viewers]
        event_rows.append(
            {
                "design": name,
                "event viewers": len(viewers),
                "mean loss": float(event_loss.mean()),
                "worst loss": float(event_loss.max()),
                "viewers within budget": int(
                    (sim.meets_threshold_fraction[viewers] == 1.0).sum()
                ),
            }
        )
    print(format_table(event_rows, float_format=".4f"))

    print(
        "\nThe LP-rounding design serves the flash crowd at a cost close to the LP"
        "\nlower bound while keeping nearly every viewer within the 0.1% loss budget;"
        "\nthe single-tree design is cheaper but misses the quality target at most"
        "\nedge regions, which is exactly the trade-off the paper's overlay removes."
    )


if __name__ == "__main__":
    main()
