"""The hand-written bench checks that ``Gate`` rows replaced: the differential oracle.

The 19 ``*_validate`` functions below are the paper-shape checks that
``repro.analysis.scenarios`` held before its scenarios declared their
thresholds as :class:`~repro.analysis.runner.Gate` rows, kept verbatim.  The
asserts in ``WRAPPER_ASSERTS`` are the nine checks that only the old pytest
wrappers (``benchmarks/bench_*.py``) made, also verbatim.  ``tests/test_gates.py``
requires :func:`oracle_failures` to fail exactly when
:func:`~repro.analysis.runner.check_gates` fails.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.runner import BenchRecord
from repro.analysis.scenarios import A1_DESIGNERS
from repro.simulation import failure_scenario_names


def tiny_validate(record: BenchRecord) -> list[str]:
    failures = []
    for row in record.rows:
        if row["unserved_demands"] != 0:
            failures.append(f"seed {row['seed']}: {row['unserved_demands']} unserved demands")
        if row["min_weight_fraction"] < 1.0 - 1e-9:
            failures.append(
                f"seed {row['seed']}: repaired design below full weight "
                f"({row['min_weight_fraction']:.3f})"
            )
    return failures


def t1_validate(record: BenchRecord) -> list[str]:
    return [
        f"{row['|S|,|R|,n']} seed {row['seed']}: cost ratio {row['cost_ratio']:.3f} "
        f"exceeds the 2 c log n bound {row['paper_bound_2clogn']:.3f}"
        for row in record.rows
        if row["cost_ratio"] > row["paper_bound_2clogn"] + 1e-9
    ]


def t2_validate(record: BenchRecord) -> list[str]:
    failures = []
    rows = sorted(record.rows, key=lambda r: -r["c"])
    paper = rows[0]
    if paper["fraction_of_draws_violating"] > paper["paper_union_bound"] + 0.05:
        failures.append(
            f"c={paper['c']}: violating fraction {paper['fraction_of_draws_violating']:.3f} "
            f"exceeds the union bound {paper['paper_union_bound']:.3f}"
        )
    if paper["fraction_of_draws_violating"] > rows[-1]["fraction_of_draws_violating"] + 1e-9:
        failures.append("violation frequency does not grow as c shrinks")
    return failures


def t3_validate(record: BenchRecord) -> list[str]:
    failures = []
    for row in record.rows:
        if row["max_fanout_factor_after_rounding"] > row["paper_bound_after_rounding"] + 1e-9:
            failures.append(
                f"c={row['c']}: fanout factor {row['max_fanout_factor_after_rounding']:.3f} "
                "after rounding exceeds the factor-2 bound"
            )
        if row["max_fanout_factor_final"] > row["paper_bound_final"] + 1e-9:
            failures.append(
                f"c={row['c']}: final fanout factor {row['max_fanout_factor_final']:.3f} "
                "exceeds the factor-4 bound"
            )
    return failures


def t4_validate(record: BenchRecord) -> list[str]:
    failures = []
    for row in record.rows:
        if row["min_weight_fraction"] < row["paper_bound"] - 1e-9:
            failures.append(
                f"{row['instance']}: min weight fraction {row['min_weight_fraction']:.3f} "
                "below the W/4 guarantee"
            )
        if row["fraction_within_4th_root_failure"] < 1.0 - 1e-9:
            failures.append(
                f"{row['instance']}: fourth-root failure bound violated on "
                f"{1.0 - row['fraction_within_4th_root_failure']:.1%} of demands"
            )
    return failures


def t5_validate(record: BenchRecord) -> list[str]:
    failures = []
    rows = sorted(record.rows, key=lambda r: r["size_product"])
    if rows[-1]["lp_variables"] <= rows[0]["lp_variables"]:
        failures.append("LP size does not grow with |S||R|n")
    for row in (rows[0], rows[-1]):
        ratio = row["lp_variables"] / row["size_product"]
        if not 0.05 <= ratio <= 3.0:
            failures.append(
                f"LP variables not within a constant factor of |S||R|n (ratio {ratio:.3f})"
            )
    largest = rows[-1]
    # Stage times are tens of milliseconds and measured inside (possibly
    # core-sharing) worker processes, so the dominance checks allow a 2x noise
    # factor and are skipped entirely in the sub-100ms pure-noise regime.
    if largest["total_seconds"] >= 0.1:
        if largest["lp_seconds"] < 0.5 * largest["rounding_seconds"]:
            failures.append("LP solve does not dominate rounding on the largest instance")
        if largest["lp_seconds"] < 0.5 * largest["gap_seconds"]:
            failures.append("LP solve does not dominate the GAP stage on the largest instance")
        if largest["build_seconds"] > 2.0 * largest["lp_seconds"]:
            failures.append("sparse matrix assembly dominates the LP solve")
    return failures


def t6_validate(record: BenchRecord) -> list[str]:
    failures = []
    for row in record.rows:
        for key in ("entangled_violation_factor", "fanout_violation_factor"):
            if row[key] > row["paper_constraint_factor_bound"] + 1e-9:
                failures.append(
                    f"seed {row['seed']}: {key} {row[key]:.3f} exceeds the factor-7 bound"
                )
        if row["cost_factor_vs_lp"] > row["paper_cost_factor_bound"] + 1e-9:
            failures.append(
                f"seed {row['seed']}: cost factor {row['cost_factor_vs_lp']:.3f} "
                "exceeds the factor-14 bound"
            )
    plain_mean = float(np.mean([row["worst_outage_survivors_plain"] for row in record.rows]))
    colored_mean = float(
        np.mean([row["worst_outage_survivors_colored"] for row in record.rows])
    )
    if colored_mean < plain_mean - 0.05:
        failures.append(
            f"colored designs survive ISP outages worse than plain ones "
            f"({colored_mean:.3f} vs {plain_mean:.3f})"
        )
    return failures


def t7_validate(record: BenchRecord) -> list[str]:
    failures = []
    for row in record.rows:
        slack = max(0.01, 3.0 / math.sqrt(row["trials"]))
        for side in ("lower", "upper"):
            if row[f"empirical_{side}_tail"] > row[f"bound_{side}_tail"] + slack:
                failures.append(
                    f"{row['summands']} delta={row['delta']}: empirical {side} tail "
                    f"{row[f'empirical_{side}_tail']:.4f} exceeds the Chernoff bound "
                    f"{row[f'bound_{side}_tail']:.4f}"
                )
    return failures


def c1_validate(record: BenchRecord) -> list[str]:
    failures = []
    by_name = {row["design"]: row for row in record.rows}
    spaa = by_name["spaa03+repair"]
    if spaa["fraction_meeting_threshold"] < 0.9:
        failures.append("LP-rounding design misses more than 10% of quality targets")
    if spaa["cost_ratio"] > 6.0:
        failures.append(f"LP-rounding cost ratio {spaa['cost_ratio']:.2f} above 6")
    if spaa["cost_ratio"] > 2.0 * spaa["rounding_multiplier"]:
        failures.append("LP-rounding cost ratio above its own 2 c log n bound")
    if spaa["total_cost"] > by_name["random"]["total_cost"] * 1.05:
        failures.append("LP-rounding design costs more than random assignment")
    single = by_name["single-tree"]
    if single["mean_paths_per_demand"] > 1.0 + 1e-9:
        failures.append("single-tree baseline uses more than one path per demand")
    if single["fraction_meeting_threshold"] > spaa["fraction_meeting_threshold"] - 0.3:
        failures.append("single-tree baseline unexpectedly meets most quality targets")
    if spaa["simulated_mean_loss"] > single["simulated_mean_loss"] + 1e-6:
        failures.append("LP-rounding design has higher simulated loss than single-tree")
    if by_name["greedy"]["fraction_meeting_threshold"] < 0.9:
        failures.append("greedy baseline unexpectedly misses quality targets")
    if by_name["greedy"]["total_cost"] > by_name["naive-quality-first"]["total_cost"]:
        failures.append("greedy baseline unexpectedly costlier than naive-quality-first")
    return failures


def c2_validate(record: BenchRecord) -> list[str]:
    failures = []
    by_label = {row["variant"]: row for row in record.rows}
    if (
        by_label["c=64 (paper constants)"]["mean_cost_ratio"]
        < by_label["c=2 (cheap, weak guarantee)"]["mean_cost_ratio"] - 1e-9
    ):
        failures.append("larger multiplier c unexpectedly cheaper than small c")
    if (
        by_label["c=64 (paper constants)"]["min_weight_fraction"]
        < by_label["c=2 (cheap, weak guarantee)"]["min_weight_fraction"] - 1e-9
    ):
        failures.append("larger multiplier c unexpectedly delivers less weight")
    if (
        by_label["baseline (c=8)"]["mean_unserved_demands"]
        > by_label["literal paper box rule"]["mean_unserved_demands"] + 1e-9
    ):
        failures.append("degenerate-box handling leaves more demands unserved")
    return failures


def r2_validate(record: BenchRecord) -> list[str]:
    failures = []
    by_key = {(row["design"], row["scenario"]): row for row in record.rows}
    designs = sorted({row["design"] for row in record.rows})
    scenarios = sorted({row["scenario"] for row in record.rows})
    missing = [
        f"{design}/{scenario}"
        for design in designs
        for scenario in failure_scenario_names()
        if (design, scenario) not in by_key
    ]
    if missing:
        failures.append(f"catalogue rows missing: {', '.join(missing)}")
        return failures
    for design in designs:
        baseline = by_key[(design, "baseline")]["mean_loss"]
        for scenario in scenarios:
            row = by_key[(design, scenario)]
            # Stress scenarios only add loss; bursty-links keeps the same
            # average, so allow sampling slack.
            if row["mean_loss"] < baseline - 0.005:
                failures.append(
                    f"{design}/{scenario}: stressed loss {row['mean_loss']:.4f} "
                    f"below the baseline {baseline:.4f}"
                )
        worst = max(by_key[(design, s)]["mean_loss"] for s in scenarios)
        if worst < baseline + 0.002:
            failures.append(
                f"{design}: no catalogue scenario stresses the design "
                f"(worst {worst:.4f} vs baseline {baseline:.4f})"
            )
    spaa_baseline = by_key[("spaa03+repair", "baseline")]
    if spaa_baseline["mean_loss"] > 0.02:
        failures.append(
            f"spaa03+repair baseline mean loss {spaa_baseline['mean_loss']:.4f} "
            "implausibly high (> 0.02)"
        )
    return failures


def f1_validate(record: BenchRecord) -> list[str]:
    failures = []
    for row in record.rows:
        if not row["feasible"]:
            failures.append(f"{row['deployment']}: infeasible demands in generated topology")
        if row["min_candidate_reflectors"] < 2:
            failures.append(
                f"{row['deployment']}: a demand has fewer than 2 candidate reflectors"
            )
    return failures


def f2_validate(record: BenchRecord) -> list[str]:
    failures = []
    for row in record.rows:
        if row["boxes_served"] > row["boxes_total"]:
            failures.append(f"{row['instance']}: served more boxes than exist")
        if row["boxes_served"] < 0.9 * row["boxes_total"]:
            failures.append(
                f"{row['instance']}: GAP serves only "
                f"{row['boxes_served']}/{row['boxes_total']} boxes"
            )
    return failures


def f3_validate(record: BenchRecord) -> list[str]:
    failures = []
    if abs(record.metrics["fractional_max_flow"] - 3.5) > 1e-6:
        failures.append(
            f"fractional max flow {record.metrics['fractional_max_flow']} != 3.5"
        )
    if abs(record.metrics["integral_max_flow"] - 3.0) > 1e-9:
        failures.append(f"integral max flow {record.metrics['integral_max_flow']} != 3.0")
    scale_rows = [row for row in record.rows if "integrality_gap" in row]
    if not any(row["sinks"] >= 100 for row in scale_rows):
        failures.append("no measured integrality gap at >= 100 sinks")
    for row in scale_rows:
        if row["milp_status"] != "optimal":
            failures.append(
                f"{row['sinks']} sinks: MILP stopped {row['milp_status']!r}, "
                "so the measured gap is not the true integrality gap"
            )
        if row["integrality_gap"] < 1.0 - 1e-9:
            failures.append(
                f"{row['sinks']} sinks: integer optimum {row['milp_cost']:.3f} "
                f"below the LP bound {row['lp_bound']:.3f}"
            )
    return failures


def t8_validate(record: BenchRecord) -> list[str]:
    failures = []
    for row in record.rows:
        if row["sharded_vs_monolithic_cost_ratio"] > 1.15 + 1e-9:
            failures.append(
                f"{row['sinks']} sinks: sharded design costs "
                f"{row['sharded_vs_monolithic_cost_ratio']:.3f}x the monolithic "
                "design (<= 1.15 required)"
            )
        if row["sharded_unserved"] != 0:
            failures.append(
                f"{row['sinks']} sinks: {row['sharded_unserved']} demands "
                "unserved after stitching"
            )
        if row["sharded_min_weight_fraction"] < 0.25 - 1e-9:
            failures.append(
                f"{row['sinks']} sinks: sharded min weight fraction "
                f"{row['sharded_min_weight_fraction']:.3f} below the W/4 guarantee"
            )
        if row["sharded_max_fanout_factor"] > 4.0 + 1e-9:
            failures.append(
                f"{row['sinks']} sinks: sharded max fanout factor "
                f"{row['sharded_max_fanout_factor']:.3f} above the factor-4 bound"
            )
        # The wall-clock gate only applies to the full-size run: at smoke
        # sizes the monolithic pipeline is itself fast enough that process
        # startup noise dominates the ratio.
        if not record.smoke and row["speedup_vs_monolithic"] < 4.0:
            failures.append(
                f"{row['sinks']} sinks: sharded pipeline only "
                f"{row['speedup_vs_monolithic']:.1f}x faster than monolithic "
                "(>= 4x required at full size)"
            )
    return failures


def i1_validate(record: BenchRecord) -> list[str]:
    failures = []
    for row in record.rows:
        if row["incremental_vs_scratch_cost_ratio"] > 1.05 + 1e-9:
            failures.append(
                f"{row['sinks']} sinks: incremental design costs "
                f"{row['incremental_vs_scratch_cost_ratio']:.3f}x the "
                "from-scratch design (<= 1.05 required)"
            )
        if row["incremental_unserved"] != 0:
            failures.append(
                f"{row['sinks']} sinks: {row['incremental_unserved']} demands "
                "unserved after the incremental update"
            )
        if row["incremental_max_fanout_factor"] > 4.0 + 1e-9:
            failures.append(
                f"{row['sinks']} sinks: incremental max fanout factor "
                f"{row['incremental_max_fanout_factor']:.3f} above the "
                "factor-4 bound"
            )
        # The wall-clock gate only applies to the full-size run: at smoke
        # sizes fixed overhead (diff, partition, audit) dominates both sides.
        if not record.smoke and row["speedup_vs_scratch"] < 10.0:
            failures.append(
                f"{row['sinks']} sinks: incremental update only "
                f"{row['speedup_vs_scratch']:.1f}x faster than from-scratch "
                "(>= 10x required at full size)"
            )
    return failures


def s1_validate(record: BenchRecord) -> list[str]:
    failures = []
    for row in record.rows:
        if not row["repeat_payload_identical"]:
            failures.append(
                "repeat-digest responses diverge from the fresh payload "
                "(must be bit-identical modulo timings/cache/request_id)"
            )
        if not row["session_matches_independent"]:
            failures.append(
                "session churn stream diverges from independent "
                "design_incremental calls (must be bit-identical)"
            )
        if row["session_unserved"] != 0:
            failures.append(
                f"{row['session_unserved']} demands unserved after the "
                "session churn stream"
            )
        if row["deduplicated"] < 1:
            failures.append(
                "in-flight dedup burst was not deduplicated "
                f"(deduplicated={row['deduplicated']})"
            )
        # Wall-clock gates only apply at full size: at smoke sizes fixed
        # overhead (serialization, audit) dominates both sides.
        if not record.smoke and row["repeat_speedup"] < 10.0:
            failures.append(
                f"repeat-digest requests only {row['repeat_speedup']:.1f}x "
                "faster than fresh ones (>= 10x required at full size)"
            )
        if not record.smoke and row["session_speedup"] <= 1.0:
            failures.append(
                f"session churn stream {row['session_speedup']:.2f}x vs "
                "independent updates (must beat 1.0x at full size)"
            )
    return failures


def r3_validate(record: BenchRecord) -> list[str]:
    failures = []
    for row in record.rows:
        label = f"{row['sinks']} sinks x {row['trials']} trials"
        if row["peak_rss_bytes"] > row["rss_budget"]:
            failures.append(
                f"{label}: audit peak {row['peak_rss_bytes']} bytes exceeds the "
                f"{row['rss_budget']}-byte budget"
            )
        if not 0.0 < row["mean_loss"] < 0.2:
            failures.append(
                f"{label}: implausible mean loss {row['mean_loss']:.4f}"
            )
        if row["diurnal_peak_window_loss"] <= 0.0:
            failures.append(f"{label}: diurnal trace replay saw no windowed loss")
    peaks = [row["peak_rss_bytes"] for row in record.rows]
    if max(peaks) / min(peaks) > 1.5:
        failures.append(
            "Monte-Carlo peak memory grows with the trial count "
            f"(ladder peaks: {peaks}); the fold is supposed to be flat"
        )
    return failures


def a1_validate(record: BenchRecord) -> list[str]:
    failures = []
    by_key = {(row["design"], row["scenario"]): row for row in record.rows}
    scenarios = sorted({row["scenario"] for row in record.rows})
    missing = [
        f"{design}/{name}"
        for design in A1_DESIGNERS
        for name in failure_scenario_names()
        if (design, name) not in by_key
    ]
    if missing:
        failures.append(f"catalogue rows missing: {', '.join(missing)}")
        return failures
    worst = {
        design: max(
            by_key[(design, name)]["mean_loss"]
            for name in scenarios
            if name != "baseline"
        )
        for design in A1_DESIGNERS
    }
    # The paper-shape claim this bench exists for: under a worst-case search
    # over the whole catalogue (including attacks targeted at each design's
    # own reflectors), the ISP-diversity extension must strictly beat both
    # baselines -- diversity is worth paying for precisely when an adversary
    # picks the failure.
    for baseline_name in ("greedy", "single-tree"):
        if worst["spaa03-extended"] >= worst[baseline_name]:
            failures.append(
                f"spaa03-extended adversarial worst-case loss "
                f"{worst['spaa03-extended']:.4f} is not strictly better than "
                f"{baseline_name} ({worst[baseline_name]:.4f})"
            )
    for design in A1_DESIGNERS:
        baseline = by_key[(design, "baseline")]["mean_loss"]
        if worst[design] < baseline + 0.01:
            failures.append(
                f"{design}: the adversary found nothing (worst {worst[design]:.4f} "
                f"vs failure-free {baseline:.4f}) -- catalogue not stressing"
            )
        if baseline > 0.05:
            failures.append(
                f"{design}: failure-free loss {baseline:.4f} implausibly high "
                "on the as-geo workload (> 0.05)"
            )
    return failures



# ---------------------------------------------------------------------------
# The asserts only the old pytest wrappers made
# ---------------------------------------------------------------------------


def a1_wrapper(record: BenchRecord) -> None:
    designs = {row["design"] for row in record.rows}
    scenarios = {row["scenario"] for row in record.rows}
    assert designs == {"spaa03-extended", "greedy", "single-tree"}
    assert len(record.rows) == len(designs) * len(scenarios)
    picks = [row for row in record.rows if row["adversary_pick"]]
    assert len(picks) == len(designs)


def c2_wrapper(record: BenchRecord) -> None:
    assert len(record.rows) == 5


def r2_wrapper(record: BenchRecord) -> None:
    designs = {row["design"] for row in record.rows}
    scenarios = {row["scenario"] for row in record.rows}
    assert len(record.rows) == len(designs) * len(scenarios)


def r3_wrapper(record: BenchRecord) -> None:
    assert record.rows, "r3 produced no ladder rungs"
    assert all(row["demands"] >= row["sinks"] for row in record.rows)


def s1_wrapper(record: BenchRecord) -> None:
    for row in record.rows:
        assert row["plan_reuse_events"] >= 1


def t7_wrapper(record: BenchRecord) -> None:
    assert len(record.rows) == 6


WRAPPER_ASSERTS = {
    "a1": a1_wrapper,
    "c2": c2_wrapper,
    "r2": r2_wrapper,
    "r3": r3_wrapper,
    "s1": s1_wrapper,
    "t7": t7_wrapper,
}

VALIDATORS = {
    "tiny": tiny_validate,
    "t1": t1_validate,
    "t2": t2_validate,
    "t3": t3_validate,
    "t4": t4_validate,
    "t5": t5_validate,
    "t6": t6_validate,
    "t7": t7_validate,
    "c1": c1_validate,
    "c2": c2_validate,
    "r2": r2_validate,
    "f1": f1_validate,
    "f2": f2_validate,
    "f3": f3_validate,
    "t8": t8_validate,
    "i1": i1_validate,
    "s1": s1_validate,
    "r3": r3_validate,
    "a1": a1_validate,
}


def oracle_failures(record: BenchRecord) -> list[str]:
    """What the old validator and wrapper asserts report for ``record``."""
    failures = list(VALIDATORS[record.scenario_id](record))
    wrapper = WRAPPER_ASSERTS.get(record.scenario_id)
    if wrapper is not None:
        try:
            wrapper(record)
        except AssertionError as error:
            failures.append(f"wrapper assert: {error}")
    return failures
