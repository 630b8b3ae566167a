"""The registered scenario catalogue: every paper experiment as a ScenarioSpec.

Each ``benchmarks/bench_*.py`` experiment is declared here as a
:class:`~repro.analysis.runner.ScenarioSpec`: a list of picklable task dicts
(workload family x size x seed block x design parameters), a module-level
task function that measures one unit, per-metric comparison policies, and a
``validate`` hook holding the paper-shape thresholds.  The ``repro bench``
CLI and the pytest wrappers under ``benchmarks/`` both run these specs
through :func:`repro.analysis.runner.run_scenario`.

Conventions
-----------
* All randomness inside a task derives from seeds carried in the task dict,
  which in turn derive from the scenario's master seed -- a run is therefore
  reproducible from one integer and independent of ``--jobs``.
* Row keys ending in ``_seconds`` are wall-clock noise: they are reported but
  never aggregated into comparable metrics.
* ``smoke=True`` shrinks seed blocks / draw counts / instance sizes for CI;
  the committed ``benchmarks/results/baseline.json`` is a smoke baseline.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.analysis.experiments import run_design
from repro.analysis.metrics import compare_designs
from repro.analysis.runner import (
    BenchRecord,
    MetricPolicy,
    ScenarioSpec,
    register_scenario,
)
from repro.api import DesignPipeline, DesignRequest, comparison_designers, get_designer
from repro.core.algorithm import DesignParameters
from repro.core.concentration import (
    chernoff_lower_tail,
    chernoff_upper_tail,
    empirical_tail_frequency,
    weight_violation_probability,
)
from repro.core.extensions import (
    color_constrained_parameters,
    extended_report_from_context,
)
from repro.core.formulation import ExtensionOptions, build_sparse_formulation
from repro.core.gap import build_gap_network, check_gap_flow, gap_round, solve_gap
from repro.core.rounding import (
    RoundingParameters,
    audit_rounding,
    round_solution,
)
from repro.lp import Objective, SparseLPBuilder, solve_compiled
from repro.network.reliability import demand_success_probability
from repro.network.topology import NodeRole
from repro.simulation import (
    FailureSchedule,
    MonteCarloConfig,
    SimulationConfig,
    StreamingConfig,
    compile_path_table,
    evaluate_design,
    failure_scenario_names,
    run_monte_carlo,
    run_streaming_monte_carlo,
    simulate_solution,
)
from repro.workloads import (
    AkamaiLikeConfig,
    AsGeoConfig,
    FlashCrowdConfig,
    InternetScaleConfig,
    RandomInstanceConfig,
    generate_akamai_like_topology,
    generate_as_geo_problem,
    generate_flash_crowd_scenario,
    generate_internet_scale_problem,
    random_problem,
)
from repro.workloads.tiny import build_tiny_problem


# ---------------------------------------------------------------------------
# tiny -- fast full-pipeline scenario (CI smoke, determinism tests)
# ---------------------------------------------------------------------------


def tiny_task(task: dict) -> dict:
    problem = build_tiny_problem()
    parameters = DesignParameters(seed=task["seed"], repair_shortfall=True)
    _, row = run_design(problem, parameters)
    row["seed"] = task["seed"]
    return row


def tiny_tasks(master_seed: int, smoke: bool) -> list[dict]:
    count = 2 if smoke else 4
    return [{"seed": master_seed + k} for k in range(count)]


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


register_scenario(
    ScenarioSpec(
        scenario_id="tiny",
        suites=("paper",),
        title="Full pipeline on the tiny 3-reflector instance (seed sweep)",
        task_fn=tiny_task,
        make_tasks=tiny_tasks,
        policies={
            "total_cost": MetricPolicy("lower", rel_tol=1e-4),
            "cost_ratio": MetricPolicy("lower", rel_tol=1e-4),
            "lp_lower_bound": MetricPolicy("equal", rel_tol=1e-6, abs_tol=1e-6),
            "min_weight_fraction": MetricPolicy("higher", abs_tol=1e-6),
            "unserved_demands": MetricPolicy("equal", rel_tol=0.0),
        },
        validate=tiny_validate,
        artifact="TINY_pipeline",
        description="Smallest end-to-end sweep; used by CI smoke and determinism tests.",
    )
)


# ---------------------------------------------------------------------------
# T1 -- Lemma 4.1: cost within c log n of the LP optimum
# ---------------------------------------------------------------------------

T1_SIZES = [(1, 5, 8), (2, 8, 16), (2, 12, 32), (3, 16, 48)]


def t1_task(task: dict) -> dict:
    streams, reflectors, sinks = task["size"]
    problem = random_problem(
        RandomInstanceConfig(
            num_streams=streams, num_reflectors=reflectors, num_sinks=sinks
        ),
        rng=task["seed"],
    )
    report, row = run_design(
        problem,
        DesignParameters(rounding=RoundingParameters(c=task["c"], seed=task["seed"])),
    )
    return {
        "|S|,|R|,n": f"{streams},{reflectors},{sinks}",
        "demands": sinks,
        "seed": task["seed"],
        "cost_ratio": row["cost_ratio"],
        "paper_bound_2clogn": 2.0 * report.rounded.multiplier,
        "elapsed_seconds": row["elapsed_seconds"],
    }


def t1_tasks(master_seed: int, smoke: bool) -> list[dict]:
    sizes = T1_SIZES[:2] if smoke else T1_SIZES
    seeds = 2 if smoke else 3
    return [
        {"size": list(size), "seed": master_seed + k, "c": 8.0}
        for size in sizes
        for k in range(seeds)
    ]


def t1_validate(record: BenchRecord) -> list[str]:
    return [
        f"{row['|S|,|R|,n']} seed {row['seed']}: cost ratio {row['cost_ratio']:.3f} "
        f"exceeds the 2 c log n bound {row['paper_bound_2clogn']:.3f}"
        for row in record.rows
        if row["cost_ratio"] > row["paper_bound_2clogn"] + 1e-9
    ]


register_scenario(
    ScenarioSpec(
        scenario_id="t1",
        suites=("paper",),
        title="Lemma 4.1 reproduction: cost ratio vs the c log n bound (c = 8)",
        task_fn=t1_task,
        make_tasks=t1_tasks,
        policies={
            "cost_ratio": MetricPolicy("lower", rel_tol=0.2),
            "paper_bound_2clogn": MetricPolicy("equal", rel_tol=1e-6),
        },
        validate=t1_validate,
        artifact="T1_cost_ratio",
        description="Cost of the rounded design relative to the LP lower bound.",
    )
)


# ---------------------------------------------------------------------------
# T2 -- Lemma 4.3: weight constraints survive rounding whp
# ---------------------------------------------------------------------------


def t2_task(task: dict) -> dict:
    c, delta = task["c"], task["delta"]
    problem = random_problem(
        RandomInstanceConfig(num_streams=2, num_reflectors=10, num_sinks=20),
        rng=task["instance_rng"],
    )
    formulation = build_sparse_formulation(problem)
    fractional = formulation.fractional_solution(formulation.solve()).support()
    rng = np.random.default_rng(task["seed"])
    params = RoundingParameters(c=c, delta=delta)
    min_fractions = []
    violating_draws = 0
    for _ in range(task["draws"]):
        rounded = round_solution(problem, fractional, params, rng)
        audit = audit_rounding(problem, rounded)
        min_fractions.append(audit.min_weight_fraction)
        if audit.min_weight_fraction < (1.0 - delta) - 1e-9:
            violating_draws += 1
    n = problem.num_demands
    return {
        "c": c,
        "delta": delta,
        "draws": task["draws"],
        "mean_min_weight_fraction": float(np.mean(min_fractions)),
        "worst_min_weight_fraction": float(np.min(min_fractions)),
        "fraction_of_draws_violating": violating_draws / task["draws"],
        "paper_union_bound": min(1.0, n * weight_violation_probability(delta, c, n)),
    }


def t2_tasks(master_seed: int, smoke: bool) -> list[dict]:
    draws = 10 if smoke else 40
    tasks = [
        {"c": 64.0, "delta": 0.25, "draws": draws, "seed": master_seed, "instance_rng": 1}
    ]
    for c in (16.0, 4.0):
        tasks.append(
            {"c": c, "delta": 0.25, "draws": draws, "seed": master_seed + 7, "instance_rng": 1}
        )
    return tasks


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


register_scenario(
    ScenarioSpec(
        scenario_id="t2",
        suites=("paper",),
        title="Lemma 4.3 reproduction: weight retention after randomized rounding",
        task_fn=t2_task,
        make_tasks=t2_tasks,
        policies={
            "mean_min_weight_fraction": MetricPolicy("higher", rel_tol=0.05),
            "worst_min_weight_fraction": MetricPolicy("higher", rel_tol=0.15),
            "fraction_of_draws_violating": MetricPolicy("lower", abs_tol=0.1),
        },
        validate=t2_validate,
        artifact="T2_weight_violation",
        description="Distribution of worst per-demand weight fraction over rounding draws.",
    )
)


# ---------------------------------------------------------------------------
# T3 -- Lemma 4.6 + Section 5: fanout violations stay constant
# ---------------------------------------------------------------------------


def t3_task(task: dict) -> dict:
    problem = random_problem(
        RandomInstanceConfig(
            num_streams=3, num_reflectors=10, num_sinks=24, fanout_range=(5, 9)
        ),
        rng=2,
    )
    formulation = build_sparse_formulation(problem)
    fractional = formulation.fractional_solution(formulation.solve()).support()
    rng = np.random.default_rng(task["seed"])
    params = RoundingParameters(c=task["c"])
    after_rounding, after_gap = [], []
    for _ in range(task["draws"]):
        rounded = round_solution(problem, fractional, params, rng)
        audit = audit_rounding(problem, rounded)
        after_rounding.append(audit.max_fanout_factor)
        result = gap_round(problem, rounded)
        load: dict = {}
        for reflector, _key in result.assignments:
            load[reflector] = load.get(reflector, 0) + 1
        worst = max((load[r] / problem.fanout(r) for r in load), default=0.0)
        after_gap.append(worst)
    return {
        "c": task["c"],
        "draws": task["draws"],
        "max_fanout_factor_after_rounding": float(np.max(after_rounding)),
        "paper_bound_after_rounding": 2.0,
        "max_fanout_factor_final": float(np.max(after_gap)),
        "paper_bound_final": 4.0,
    }


def t3_tasks(master_seed: int, smoke: bool) -> list[dict]:
    draws = 8 if smoke else 25
    return [{"c": c, "draws": draws, "seed": master_seed} for c in (64.0, 24.0)]


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


register_scenario(
    ScenarioSpec(
        scenario_id="t3",
        suites=("paper",),
        title="Lemma 4.6 / Section 5 reproduction: fanout violation factors",
        task_fn=t3_task,
        make_tasks=t3_tasks,
        policies={
            "max_fanout_factor_after_rounding": MetricPolicy("lower", abs_tol=0.25),
            "max_fanout_factor_final": MetricPolicy("lower", abs_tol=0.5),
        },
        validate=t3_validate,
        artifact="T3_fanout_violation",
        description="Worst fanout factor after rounding and after the GAP stage.",
    )
)


# ---------------------------------------------------------------------------
# T4 -- Section 5: final designs deliver >= 1/4 of the demanded weight
# ---------------------------------------------------------------------------


def t4_task(task: dict) -> dict:
    kind = task["kind"]
    if kind == "random":
        problem = random_problem(
            RandomInstanceConfig(
                num_streams=task["streams"],
                num_reflectors=task["reflectors"],
                num_sinks=task["sinks"],
            ),
            rng=task["rng"],
        )
    else:
        topology, _ = generate_akamai_like_topology(
            AkamaiLikeConfig(num_regions=2, colos_per_region=3, num_streams=2),
            rng=task["rng"],
        )
        problem = topology.to_problem()
    params = DesignParameters(
        rounding=RoundingParameters.paper_defaults(),
        seed=task["seed"],
        repair_shortfall=False,
    )
    report = DesignPipeline.standard().run(problem, params).report()
    solution = report.solution
    weight_fractions = [solution.weight_satisfaction(d) for d in problem.demands]
    fourth_root_ok = []
    for demand in problem.demands:
        target_failure = 1.0 - demand.success_threshold
        achieved_failure = solution.failure_probability(demand)
        fourth_root_ok.append(achieved_failure <= target_failure**0.25 + 1e-9)
    return {
        "instance": task["instance"],
        "demands": problem.num_demands,
        "min_weight_fraction": float(np.min(weight_fractions)),
        "mean_weight_fraction": float(np.mean(weight_fractions)),
        "paper_bound": 0.25,
        "fraction_within_4th_root_failure": float(np.mean(fourth_root_ok)),
        "fraction_fully_meeting_target": float(
            np.mean([f >= 1.0 - 1e-9 for f in weight_fractions])
        ),
    }


def t4_tasks(master_seed: int, smoke: bool) -> list[dict]:
    tasks = [
        {
            "instance": "random-small",
            "kind": "random",
            "streams": 2,
            "reflectors": 8,
            "sinks": 15,
            "rng": 0,
            "seed": master_seed,
        },
        {
            "instance": "random-medium",
            "kind": "random",
            "streams": 3,
            "reflectors": 12,
            "sinks": 30,
            "rng": 1,
            "seed": master_seed,
        },
        {"instance": "akamai-like", "kind": "akamai", "rng": 2, "seed": master_seed},
    ]
    if smoke:
        return [tasks[0], tasks[2]]
    return tasks


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


register_scenario(
    ScenarioSpec(
        scenario_id="t4",
        suites=("paper",),
        title="Section 5 reproduction: delivered weight vs the W/4 guarantee",
        task_fn=t4_task,
        make_tasks=t4_tasks,
        policies={
            "min_weight_fraction": MetricPolicy("higher", abs_tol=0.05),
            "mean_weight_fraction": MetricPolicy("higher", rel_tol=0.1),
            "fraction_within_4th_root_failure": MetricPolicy("higher", abs_tol=1e-9),
        },
        validate=t4_validate,
        artifact="T4_final_quality",
        description="End-to-end quality of the unrepaired paper algorithm.",
    )
)


# ---------------------------------------------------------------------------
# T5 -- Section 5.1: running time is dominated by the LP
# ---------------------------------------------------------------------------

T5_SIZES = [(1, 5, 10), (2, 8, 20), (2, 12, 40), (3, 16, 60), (3, 20, 90)]


def t5_task(task: dict) -> dict:
    streams, reflectors, sinks = task["size"]
    problem = random_problem(
        RandomInstanceConfig(
            num_streams=streams,
            num_reflectors=reflectors,
            num_sinks=sinks,
            delivery_edge_density=1.0,
            stream_edge_density=1.0,
        ),
        rng=task["rng"],
    )
    _, row = run_design(problem, DesignParameters(seed=task["seed"], retry_rounding=False))
    return {
        "size_product": streams * reflectors * sinks,
        "lp_variables": row["lp_variables"],
        "lp_constraints": row["lp_constraints"],
        "lp_nonzeros": row["lp_nonzeros"],
        "build_seconds": row["formulate_seconds"],
        "lp_seconds": row["lp_seconds"],
        "rounding_seconds": row["rounding_seconds"],
        "gap_seconds": row["gap_seconds"],
        "total_seconds": row["elapsed_seconds"],
    }


def t5_tasks(master_seed: int, smoke: bool) -> list[dict]:
    # The sweep sizes are already CI-sized; smoke keeps them so the
    # stage-dominance checks run on a meaningful largest instance.
    return [{"size": list(size), "rng": 0, "seed": master_seed} for size in T5_SIZES]


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


register_scenario(
    ScenarioSpec(
        scenario_id="t5",
        suites=("paper",),
        title="Section 5.1 reproduction: pipeline scaling with |S|*|R|*n "
        "(build vs solve breakdown)",
        task_fn=t5_task,
        make_tasks=t5_tasks,
        policies={
            "lp_variables": MetricPolicy("equal", rel_tol=0.0),
            "lp_constraints": MetricPolicy("equal", rel_tol=0.0),
            "lp_nonzeros": MetricPolicy("equal", rel_tol=0.0),
        },
        validate=t5_validate,
        artifact="T5_scaling",
        description="LP size and per-stage wall-clock across a size sweep.",
    )
)


# ---------------------------------------------------------------------------
# T6 -- Sections 6.4/6.5: color constraints and ISP-outage resilience
# ---------------------------------------------------------------------------


def _survivor_fraction(problem, solution, victim: str) -> float:
    survivors = 0
    for demand in problem.demands:
        success = demand_success_probability(
            problem, demand, solution.reflectors_serving(demand), failed_isps={victim}
        )
        if success + 1e-12 >= demand.success_threshold:
            survivors += 1
    return survivors / problem.num_demands


def t6_task(task: dict) -> dict:
    seed = task["seed"]
    topology, registry = generate_akamai_like_topology(
        AkamaiLikeConfig(
            num_regions=2,
            colos_per_region=3,
            num_isps=3,
            num_streams=2,
            reflectors_per_colo=2,
        ),
        rng=task["rng"],
    )
    problem = topology.to_problem()
    base = DesignParameters(seed=seed, repair_shortfall=True)
    plain_report = DesignPipeline.standard().run(problem, base).report()
    colored_report = extended_report_from_context(
        DesignPipeline.extended().run(problem, color_constrained_parameters(base))
    )

    plain = plain_report.solution
    colored = colored_report.solution
    path_info = colored_report.path_rounding
    worst_plain = min(_survivor_fraction(problem, plain, isp) for isp in registry.names())
    worst_colored = min(
        _survivor_fraction(problem, colored, isp) for isp in registry.names()
    )
    return {
        "seed": seed,
        "demands": problem.num_demands,
        "plain_cost": plain.total_cost(),
        "colored_cost": colored.total_cost(),
        "cost_factor_vs_lp": colored.total_cost() / max(colored_report.lp_lower_bound, 1e-9),
        "paper_cost_factor_bound": 14.0,
        "entangled_violation_factor": (
            path_info.violation_factors.get("entangled", 0.0) if path_info else 0.0
        ),
        "fanout_violation_factor": (
            path_info.violation_factors.get("fanout", 0.0) if path_info else 0.0
        ),
        "paper_constraint_factor_bound": 7.0,
        "worst_outage_survivors_plain": worst_plain,
        "worst_outage_survivors_colored": worst_colored,
    }


def t6_tasks(master_seed: int, smoke: bool) -> list[dict]:
    count = 2 if smoke else 3
    return [{"seed": master_seed + k, "rng": k} for k in range(count)]


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


register_scenario(
    ScenarioSpec(
        scenario_id="t6",
        suites=("paper",),
        title="Sections 6.4/6.5 reproduction: color constraints and ISP-outage resilience",
        task_fn=t6_task,
        make_tasks=t6_tasks,
        policies={
            "colored_cost": MetricPolicy("lower", rel_tol=0.1),
            "cost_factor_vs_lp": MetricPolicy("lower", rel_tol=0.15),
            "worst_outage_survivors_colored": MetricPolicy("higher", abs_tol=0.1),
        },
        validate=t6_validate,
        artifact="T6_color_constraints",
        description="Path-rounding violation factors and single-ISP outage survival.",
    )
)


# ---------------------------------------------------------------------------
# T7 -- Section 4 / Appendix A: the Hoeffding-Chernoff bound
# ---------------------------------------------------------------------------


def t7_task(task: dict) -> dict:
    kind, num_vars, delta, trials = task["kind"], task["n_vars"], task["delta"], task["trials"]
    rng = np.random.default_rng(task["seed"])
    if kind == "bernoulli(0.3)":
        samples = rng.binomial(num_vars, 0.3, size=trials).astype(float)
        mu = 0.3 * num_vars
    elif kind == "uniform[0,1]":
        samples = rng.random((trials, num_vars)).sum(axis=1)
        mu = 0.5 * num_vars
    else:  # scaled bernoulli, mimicking the 1/(c log n) rounding increments
        scale = 0.2
        samples = scale * rng.binomial(num_vars, 0.4, size=trials).astype(float)
        mu = scale * 0.4 * num_vars
    return {
        "summands": kind,
        "n_vars": num_vars,
        "delta": delta,
        "trials": trials,
        "empirical_lower_tail": empirical_tail_frequency(samples, mu, delta, "lower"),
        "bound_lower_tail": chernoff_lower_tail(mu, delta),
        "empirical_upper_tail": empirical_tail_frequency(samples, mu, delta, "upper"),
        "bound_upper_tail": chernoff_upper_tail(mu, delta),
    }


def t7_tasks(master_seed: int, smoke: bool) -> list[dict]:
    trials = 4_000 if smoke else 20_000
    tasks = []
    for index, kind in enumerate(("bernoulli(0.3)", "uniform[0,1]", "scaled-bernoulli")):
        for jndex, delta in enumerate((0.25, 0.5)):
            tasks.append(
                {
                    "kind": kind,
                    "n_vars": 60,
                    "delta": delta,
                    "trials": trials,
                    "seed": master_seed * 1000 + 10 * index + jndex,
                }
            )
    return tasks


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


register_scenario(
    ScenarioSpec(
        scenario_id="t7",
        suites=("paper",),
        title="Appendix A reproduction: empirical tails vs Hoeffding-Chernoff bounds",
        task_fn=t7_task,
        make_tasks=t7_tasks,
        policies={
            "empirical_lower_tail": MetricPolicy("lower", abs_tol=0.02),
            "empirical_upper_tail": MetricPolicy("lower", abs_tol=0.02),
            "bound_lower_tail": MetricPolicy("equal", rel_tol=1e-9, abs_tol=1e-12),
            "bound_upper_tail": MetricPolicy("equal", rel_tol=1e-9, abs_tol=1e-12),
        },
        validate=t7_validate,
        artifact="T7_chernoff",
        description="Empirical tail frequencies for the summand kinds the rounding produces.",
    )
)


# ---------------------------------------------------------------------------
# C1 -- comparative evaluation against the baseline strategies
# ---------------------------------------------------------------------------


def c1_task(task: dict) -> list[dict]:
    config = FlashCrowdConfig(
        deployment=AkamaiLikeConfig(
            num_regions=3, colos_per_region=3, num_isps=3, num_streams=2
        )
    )
    topology, _registry = generate_flash_crowd_scenario(config, rng=task["rng"])
    problem = topology.to_problem()
    result = get_designer("spaa03").design(
        DesignRequest(
            problem=problem,
            parameters=DesignParameters(
                seed=task["seed"],
                repair_shortfall=True,
                rounding=RoundingParameters(c=16.0),
            ),
        )
    )
    report = result.report
    # Registry-driven comparison: every designer registered with
    # in_comparisons=True appears automatically; each derives its randomness
    # from the request seed, so rows stay deterministic.
    designs = {"spaa03+repair": result.solution}
    for designer in comparison_designers():
        designs[designer.name] = designer.design(
            DesignRequest(
                problem=problem, parameters=DesignParameters(seed=task["seed"])
            )
        ).solution

    def simulated_loss(problem_, solution_):
        sim = simulate_solution(
            problem_,
            solution_,
            SimulationConfig(num_packets=task["packets"], seed=task["sim_seed"]),
        )
        return sim.mean_loss

    rows = compare_designs(
        problem,
        designs,
        lower_bound=report.lp_lower_bound,
        extra_metrics={"simulated_mean_loss": simulated_loss},
    )
    for row in rows:
        row["rounding_multiplier"] = report.rounded.multiplier
    return rows


def c1_tasks(master_seed: int, smoke: bool) -> list[dict]:
    packets = 2_000 if smoke else 8_000
    return [{"rng": 0, "seed": master_seed, "sim_seed": master_seed + 3, "packets": packets}]


def c1_metrics(rows: list[dict]) -> dict[str, float]:
    by_name = {row["design"]: row for row in rows}
    spaa = by_name["spaa03+repair"]
    return {
        "spaa_total_cost": spaa["total_cost"],
        "spaa_cost_ratio": spaa["cost_ratio"],
        "spaa_fraction_meeting_threshold": spaa["fraction_meeting_threshold"],
        "spaa_simulated_mean_loss": spaa["simulated_mean_loss"],
        "greedy_total_cost": by_name["greedy"]["total_cost"],
        "single_tree_fraction_meeting_threshold": by_name["single-tree"][
            "fraction_meeting_threshold"
        ],
        "random_total_cost": by_name["random"]["total_cost"],
    }


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


register_scenario(
    ScenarioSpec(
        scenario_id="c1",
        suites=("comparison",),
        title="C1: LP-rounding design vs baselines on the flash-crowd workload",
        task_fn=c1_task,
        make_tasks=c1_tasks,
        policies={
            "spaa_total_cost": MetricPolicy("lower", rel_tol=0.1),
            "spaa_cost_ratio": MetricPolicy("lower", rel_tol=0.1),
            "spaa_fraction_meeting_threshold": MetricPolicy("higher", abs_tol=0.05),
            "spaa_simulated_mean_loss": MetricPolicy("lower", abs_tol=0.02),
            "greedy_total_cost": MetricPolicy("equal", rel_tol=0.05),
            "random_total_cost": MetricPolicy("equal", rel_tol=0.05),
        },
        derive_metrics=c1_metrics,
        validate=c1_validate,
        artifact="C1_baselines",
        columns=[
            "design",
            "total_cost",
            "cost_ratio",
            "mean_success",
            "fraction_meeting_threshold",
            "mean_paths_per_demand",
            "max_fanout_factor",
            "simulated_mean_loss",
        ],
        description="Cost/reliability comparison against greedy, naive, single-tree, random.",
    )
)


# ---------------------------------------------------------------------------
# C2 -- ablations of the design choices called out in DESIGN.md
# ---------------------------------------------------------------------------


def c2_task(task: dict) -> dict:
    problem = random_problem(
        RandomInstanceConfig(num_streams=2, num_reflectors=10, num_sinks=24),
        rng=task["rng"],
    )
    ratios, min_weights, unserved, fanouts = [], [], [], []
    for seed in task["seeds"]:
        params = DesignParameters(
            rounding=RoundingParameters(c=task["c"], seed=seed),
            extensions=ExtensionOptions(drop_cutting_plane=task["drop_cutting_plane"]),
            keep_degenerate_box=task["keep_degenerate_box"],
            retry_rounding=False,
        )
        # Routed through the strategy registry (identical to design_overlay).
        result = get_designer("spaa03").design(
            DesignRequest(problem=problem, parameters=params)
        )
        report = result.report
        solution = result.solution
        ratios.append(report.cost_ratio)
        min_weights.append(min(solution.weight_satisfaction(d) for d in problem.demands))
        unserved.append(len(solution.unserved_demands()))
        fanouts.append(solution.max_fanout_factor())
    return {
        "variant": task["variant"],
        "mean_cost_ratio": float(np.mean(ratios)),
        "min_weight_fraction": float(np.min(min_weights)),
        "mean_unserved_demands": float(np.mean(unserved)),
        "max_fanout_factor": float(np.max(fanouts)),
    }


def c2_tasks(master_seed: int, smoke: bool) -> list[dict]:
    seeds = [master_seed + k for k in range(2 if smoke else 3)]
    base = {"c": 8.0, "drop_cutting_plane": False, "keep_degenerate_box": True}
    variants = [
        ("baseline (c=8)", {}),
        ("c=2 (cheap, weak guarantee)", {"c": 2.0}),
        ("c=64 (paper constants)", {"c": 64.0}),
        ("no cutting plane (4)", {"drop_cutting_plane": True}),
        ("literal paper box rule", {"keep_degenerate_box": False}),
    ]
    return [
        {"variant": label, "rng": 5, "seeds": seeds, **{**base, **overrides}}
        for label, overrides in variants
    ]


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


register_scenario(
    ScenarioSpec(
        scenario_id="c2",
        suites=("comparison",),
        title="C2: ablations of multiplier, cutting plane and box rule",
        task_fn=c2_task,
        make_tasks=c2_tasks,
        policies={
            "mean_cost_ratio": MetricPolicy("lower", rel_tol=0.15),
            "min_weight_fraction": MetricPolicy("higher", abs_tol=0.1),
            "mean_unserved_demands": MetricPolicy("lower", abs_tol=0.5),
        },
        validate=c2_validate,
        artifact="C2_ablation",
        description="Rounding multiplier, cutting-plane and degenerate-box ablations.",
    )
)


# ---------------------------------------------------------------------------
# R1 -- vectorized Monte-Carlo engine vs the legacy per-demand loop
# ---------------------------------------------------------------------------

R1_CONFIGS = {
    "akamai-default": dict(),
    "akamai-large": dict(num_regions=4, colos_per_region=6, num_streams=4),
}


def r1_task(task: dict) -> dict:
    config = AkamaiLikeConfig(**R1_CONFIGS[task["instance"]])
    topology, _registry = generate_akamai_like_topology(config, rng=task["rng"])
    problem = topology.to_problem()
    solution = get_designer("greedy").design(DesignRequest(problem=problem)).solution
    packets, window = task["packets"], task["window"]

    # Both engines are timed as `timing_reps` interleaved (legacy block,
    # vectorized run) pairs, so a sustained slowdown of the machine (shared
    # CI boxes, frequency scaling) hits both sides of a pair; the row
    # reports both the peak and the median paired ratio, and validation
    # gates on both (peak for the throughput claim, a median floor so one
    # clean pair cannot carry a genuinely regressed engine).  The per-trial
    # columns report each engine's best block.
    reps = task["timing_reps"]
    rng = np.random.default_rng(task["sim_seed"])
    legacy_config = SimulationConfig(num_packets=packets, window=window)
    mc_config = MonteCarloConfig(num_packets=packets, trials=task["trials"], window=window)
    # One warm-up run per engine keeps allocator effects out of the timing.
    simulate_solution(problem, solution, legacy_config, rng=np.random.default_rng(0))
    run_monte_carlo(problem, solution, mc_config, rng=np.random.default_rng(0))
    legacy_means = []
    legacy_block_times = []
    vectorized_times = []
    report = None
    for rep in range(reps):
        start = time.perf_counter()
        for _ in range(task["legacy_trials"]):
            legacy_means.append(
                simulate_solution(problem, solution, legacy_config, rng=rng).mean_loss
            )
        legacy_block_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        rep_report = run_monte_carlo(
            problem,
            solution,
            mc_config,
            rng=np.random.default_rng(task["sim_seed"] + 1 + rep),
        )
        vectorized_times.append(time.perf_counter() - start)
        if report is None:
            report = rep_report
    paired_ratios = [
        (block / task["legacy_trials"]) / (vec / task["trials"])
        for block, vec in zip(legacy_block_times, vectorized_times)
    ]

    # Compat mode: bit-identical replay of the legacy draw order.
    compat = run_monte_carlo(
        problem,
        solution,
        MonteCarloConfig(num_packets=packets, trials=1, window=window, rng_mode="compat"),
        rng=np.random.default_rng(task["compat_seed"]),
    ).to_simulation_report(0)
    reference = simulate_solution(
        problem,
        solution,
        SimulationConfig(num_packets=packets, window=window),
        rng=np.random.default_rng(task["compat_seed"]),
    )
    compat_exact = all(
        a.demand_key == b.demand_key
        and a.loss_rate == b.loss_rate
        and a.worst_window_loss == b.worst_window_loss
        and a.duplicates_discarded == b.duplicates_discarded
        for a, b in zip(reference.demands, compat.demands)
    )

    legacy_mean = float(np.mean(legacy_means))
    legacy_se = float(np.std(legacy_means, ddof=1) / np.sqrt(len(legacy_means)))
    vec_se = float(
        np.std(report.trial_mean_loss, ddof=1) / np.sqrt(report.trials)
    )
    legacy_per_trial = min(legacy_block_times) / task["legacy_trials"]
    vectorized_per_trial = min(vectorized_times) / task["trials"]
    return {
        "instance": task["instance"],
        "demands": problem.num_demands,
        "packets": packets,
        "vectorized_trials": task["trials"],
        "legacy_trials": task["legacy_trials"] * reps,
        "legacy_mean_loss": legacy_mean,
        "vectorized_mean_loss": report.mean_loss,
        "mean_loss_z_score": (report.mean_loss - legacy_mean)
        / max(np.hypot(legacy_se, vec_se), 1e-12),
        "compat_exact": bool(compat_exact),
        "legacy_per_trial_seconds": legacy_per_trial,
        "vectorized_per_trial_seconds": vectorized_per_trial,
        # Peak paired ratio = the cleanest (least externally-disturbed)
        # measurement pair; the median shows the typical ratio under whatever
        # contention the machine had.  Shared hosts skew the ratio *down*
        # (the batched engine is memory-bandwidth-bound, the legacy loop is
        # dispatch-bound), so the peak is the right throughput claim.
        "speedup_vs_legacy": float(np.max(paired_ratios)),
        "median_speedup_vs_legacy": float(np.median(paired_ratios)),
    }


def r1_tasks(master_seed: int, smoke: bool) -> list[dict]:
    instances = ["akamai-default"] if smoke else ["akamai-default", "akamai-large"]
    return [
        {
            "instance": instance,
            "rng": index,
            "packets": 1000 if smoke else 2000,
            "window": 200,
            "trials": 100 if smoke else 400,
            "legacy_trials": 4 if smoke else 15,
            "timing_reps": 3 if smoke else 6,
            "sim_seed": master_seed * 1000 + index,
            "compat_seed": master_seed * 1000 + 500 + index,
        }
        for index, instance in enumerate(instances)
    ]


def r1_validate(record: BenchRecord) -> list[str]:
    failures = []
    # Timing thresholds are generous in smoke mode: CI boxes are noisy and
    # run scenarios in parallel.  Full runs enforce the real target on the
    # peak paired ratio plus a median floor -- the peak carries the
    # throughput claim (contention skews ratios down, the vectorized engine
    # being memory-bandwidth-bound), while the median floor ensures a
    # genuine engine regression cannot hide behind one noisy pair.
    required_peak = 2.0 if record.smoke else 20.0
    required_median = 1.5 if record.smoke else 10.0
    for row in record.rows:
        if not row["compat_exact"]:
            failures.append(
                f"{row['instance']}: compat RNG mode is not bit-identical to the legacy engine"
            )
        if abs(row["mean_loss_z_score"]) > 4.0:
            failures.append(
                f"{row['instance']}: engine means differ by z = {row['mean_loss_z_score']:.2f}"
            )
        if row["speedup_vs_legacy"] < required_peak:
            failures.append(
                f"{row['instance']}: vectorized engine only "
                f"{row['speedup_vs_legacy']:.1f}x faster than the legacy loop "
                f"(peak >= {required_peak:g}x required)"
            )
        if row["median_speedup_vs_legacy"] < required_median:
            failures.append(
                f"{row['instance']}: median paired speedup "
                f"{row['median_speedup_vs_legacy']:.1f}x below the "
                f"{required_median:g}x floor (engine regression?)"
            )
    return failures


register_scenario(
    ScenarioSpec(
        scenario_id="r1",
        title="R1: vectorized Monte-Carlo engine vs the legacy per-demand loop",
        task_fn=r1_task,
        make_tasks=r1_tasks,
        policies={
            # Both engines run fixed seeds, so their measured means are
            # deterministic; the z-score column guards statistical agreement.
            "legacy_mean_loss": MetricPolicy("equal", rel_tol=1e-6, abs_tol=1e-9),
            "vectorized_mean_loss": MetricPolicy("equal", rel_tol=1e-6, abs_tol=1e-9),
            "compat_exact": MetricPolicy("higher", rel_tol=0.0),
        },
        validate=r1_validate,
        artifact="R1_reliability_engine",
        suites=("reliability",),
        description="Throughput and statistical equivalence of the batched engine "
        "(compat mode must be bit-identical; full runs require >= 20x).",
    )
)


# ---------------------------------------------------------------------------
# R2 -- designs under the adversarial failure-scenario catalogue
# ---------------------------------------------------------------------------


def r2_task(task: dict) -> list[dict]:
    topology, _registry = generate_akamai_like_topology(
        AkamaiLikeConfig(
            num_regions=2, colos_per_region=3, num_isps=3, num_streams=2
        ),
        rng=task["rng"],
    )
    problem = topology.to_problem()
    spaa = get_designer("spaa03").design(
        DesignRequest(
            problem=problem,
            parameters=DesignParameters(
                seed=task["seed"],
                repair_shortfall=True,
                rounding=RoundingParameters(c=16.0),
            ),
        )
    )
    designs = {"spaa03+repair": spaa.solution}
    for name in ("greedy", "single-tree"):
        designs[name] = (
            get_designer(name)
            .design(
                DesignRequest(
                    problem=problem, parameters=DesignParameters(seed=task["seed"])
                )
            )
            .solution
        )
    rows = []
    for design_name, solution in designs.items():
        swept = evaluate_design(
            problem,
            solution,
            trials=task["trials"],
            num_packets=task["packets"],
            window=task["window"],
            seed=task["eval_seed"],
        )
        for scenario_name, metrics in swept.items():
            rows.append(
                {
                    "design": design_name,
                    "scenario": scenario_name,
                    "mean_loss": metrics["mean_loss"],
                    "mean_loss_ci95": metrics["mean_loss_ci95"],
                    "worst_demand_mean_loss": metrics["worst_demand_mean_loss"],
                    "mean_worst_window_loss": metrics["mean_worst_window_loss"],
                    "fraction_meeting_threshold": metrics["fraction_meeting_threshold"],
                    "failure_events": metrics["failure_events"],
                }
            )
    return rows


def r2_tasks(master_seed: int, smoke: bool) -> list[dict]:
    return [
        {
            "rng": 0,
            "seed": master_seed,
            "eval_seed": master_seed + 11,
            "trials": 20 if smoke else 60,
            "packets": 1000 if smoke else 2000,
            "window": 200,
        }
    ]


def r2_metrics(rows: list[dict]) -> dict[str, float]:
    by_key = {(row["design"], row["scenario"]): row for row in rows}
    out = {}
    for scenario in failure_scenario_names():
        key = scenario.replace("-", "_")
        out[f"spaa_{key}_mean_loss"] = by_key[("spaa03+repair", scenario)]["mean_loss"]
        out[f"spaa_{key}_meets"] = by_key[("spaa03+repair", scenario)][
            "fraction_meeting_threshold"
        ]
    out["single_tree_worst_scenario_mean_loss"] = max(
        row["mean_loss"] for row in rows if row["design"] == "single-tree"
    )
    return out


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


register_scenario(
    ScenarioSpec(
        scenario_id="r2",
        title="R2: designs under the adversarial failure-scenario catalogue",
        task_fn=r2_task,
        make_tasks=r2_tasks,
        policies={
            "spaa_baseline_mean_loss": MetricPolicy("lower", abs_tol=0.01),
            "spaa_isp_outage_mean_loss": MetricPolicy("lower", abs_tol=0.05),
            "spaa_regional_failure_mean_loss": MetricPolicy("lower", abs_tol=0.05),
            "spaa_flash_crowd_mean_loss": MetricPolicy("lower", abs_tol=0.05),
            "spaa_bursty_links_mean_loss": MetricPolicy("lower", abs_tol=0.01),
            "spaa_baseline_meets": MetricPolicy("higher", abs_tol=0.05),
            "spaa_isp_outage_meets": MetricPolicy("higher", abs_tol=0.1),
            "spaa_regional_failure_meets": MetricPolicy("higher", abs_tol=0.1),
            "spaa_flash_crowd_meets": MetricPolicy("higher", abs_tol=0.1),
            "spaa_bursty_links_meets": MetricPolicy("higher", abs_tol=0.05),
            "single_tree_worst_scenario_mean_loss": MetricPolicy("equal", rel_tol=0.25),
        },
        derive_metrics=r2_metrics,
        validate=r2_validate,
        artifact="R2_failure_catalogue",
        columns=[
            "design",
            "scenario",
            "mean_loss",
            "mean_loss_ci95",
            "worst_demand_mean_loss",
            "mean_worst_window_loss",
            "fraction_meeting_threshold",
            "failure_events",
        ],
        suites=("reliability",),
        description="Reliability of the paper design vs baselines across the "
        "correlated-failure catalogue (Monte-Carlo engine).",
    )
)


# ---------------------------------------------------------------------------
# F1 -- Figure 1: the three-level overlay network substrate
# ---------------------------------------------------------------------------

F1_SIZES = {
    "small": {"num_regions": 2, "colos_per_region": 2, "num_isps": 2, "num_streams": 2},
    "medium": {"num_regions": 3, "colos_per_region": 4, "num_isps": 3, "num_streams": 3},
    "large": {"num_regions": 4, "colos_per_region": 6, "num_isps": 4, "num_streams": 4},
}


def f1_task(task: dict) -> dict:
    config = AkamaiLikeConfig(**task["config"])
    start = time.perf_counter()
    topology, registry = generate_akamai_like_topology(config, rng=task["rng"])
    problem = topology.to_problem()
    elapsed = time.perf_counter() - start
    # Figure-1 invariants: strictly three levels, links only forward.
    for link in topology.links():
        tail_role = topology.node(link.tail).role
        head_role = topology.node(link.head).role
        if (tail_role, head_role) not in {
            (NodeRole.SOURCE, NodeRole.REFLECTOR),
            (NodeRole.REFLECTOR, NodeRole.SINK),
        }:
            raise AssertionError(f"non-forward link {link.tail}->{link.head}")
    feasible = problem.feasibility_report() == []
    min_candidates = min(
        len(problem.candidate_reflectors(demand)) for demand in problem.demands
    )
    summary = topology.size_summary()
    return {
        "deployment": task["deployment"],
        "sources": summary["sources"],
        "reflectors": summary["reflectors"],
        "sinks": summary["sinks"],
        "links": summary["links"],
        "demands": summary["demands"],
        "isps": len(registry),
        "feasible": feasible,
        "min_candidate_reflectors": min_candidates,
        "build_seconds": elapsed,
    }


def f1_tasks(master_seed: int, smoke: bool) -> list[dict]:
    names = ["small", "medium"] if smoke else ["small", "medium", "large"]
    return [{"deployment": name, "config": F1_SIZES[name], "rng": 0} for name in names]


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


register_scenario(
    ScenarioSpec(
        scenario_id="f1",
        suites=("figures",),
        title="Figure 1 reproduction: 3-level overlay instances",
        task_fn=f1_task,
        make_tasks=f1_tasks,
        policies={
            "sources": MetricPolicy("equal", rel_tol=0.0),
            "reflectors": MetricPolicy("equal", rel_tol=0.0),
            "sinks": MetricPolicy("equal", rel_tol=0.0),
            "links": MetricPolicy("equal", rel_tol=0.0),
            "demands": MetricPolicy("equal", rel_tol=0.0),
        },
        validate=f1_validate,
        artifact="F1_network_model",
        description="Workload-generator structural invariants and build throughput.",
    )
)


# ---------------------------------------------------------------------------
# F2 -- Figure 2: the modified-GAP conversion network
# ---------------------------------------------------------------------------

F2_SIZES = {
    "small": {"num_streams": 2, "num_reflectors": 6, "num_sinks": 10},
    "medium": {"num_streams": 3, "num_reflectors": 10, "num_sinks": 25},
    "large": {"num_streams": 4, "num_reflectors": 16, "num_sinks": 50},
}


def f2_task(task: dict) -> dict:
    problem = random_problem(RandomInstanceConfig(**task["config"]), rng=task["seed"])
    formulation = build_sparse_formulation(problem)
    fractional = formulation.fractional_solution(formulation.solve()).support()
    rounded = round_solution(
        problem, fractional, RoundingParameters(c=64.0, seed=task["seed"])
    )
    start = time.perf_counter()
    gap = build_gap_network(problem, rounded)
    built = time.perf_counter() - start
    start = time.perf_counter()
    result = solve_gap(problem, gap)
    solved = time.perf_counter() - start
    check_gap_flow(gap, result.flow)
    # Box invariants: intervals ordered by decreasing weight per demand.
    per_demand: dict = {}
    for box in gap.boxes:
        per_demand.setdefault(box.demand_key, []).append(box)
    for boxes in per_demand.values():
        boxes.sort(key=lambda b: b.index)
        for earlier, later in zip(boxes, boxes[1:]):
            if earlier.lower < later.lower - 1e-9:
                raise AssertionError("GAP boxes not ordered by decreasing weight")
    return {
        "instance": task["instance"],
        "demands": problem.num_demands,
        "pair_nodes": len(gap.pairs),
        "boxes": len(gap.boxes),
        "boxes_served": result.boxes_served,
        "boxes_total": result.boxes_total,
        "flow_nodes": gap.num_nodes,
        "flow_edges": gap.num_arcs,
        "build_seconds": built,
        "flow_seconds": solved,
    }


def f2_tasks(master_seed: int, smoke: bool) -> list[dict]:
    names = ["small", "medium"] if smoke else ["small", "medium", "large"]
    return [
        {"instance": name, "config": F2_SIZES[name], "seed": master_seed} for name in names
    ]


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


register_scenario(
    ScenarioSpec(
        scenario_id="f2",
        suites=("figures",),
        title="Figure 2 reproduction: GAP conversion network",
        task_fn=f2_task,
        make_tasks=f2_tasks,
        policies={
            "pair_nodes": MetricPolicy("equal", rel_tol=0.0),
            "boxes": MetricPolicy("equal", rel_tol=0.0),
            "boxes_served": MetricPolicy("higher", abs_tol=1.0),
            "flow_nodes": MetricPolicy("equal", rel_tol=0.0),
            "flow_edges": MetricPolicy("equal", rel_tol=0.0),
        },
        validate=f2_validate,
        artifact="F2_gap_network",
        description="Structure and throughput of the Figure-2 flow conversion network.",
    )
)


# ---------------------------------------------------------------------------
# F3 -- Figure 3: the integrality gap under entangled-set constraints
# ---------------------------------------------------------------------------

F3_EDGES = {
    ("s", "a"): 2.0,
    ("s", "p"): 2.0,
    ("a", "b"): 2.0,
    ("a", "q"): 1.0,
    ("p", "q"): 2.0,
    ("b", "t"): 2.0,
    ("q", "t"): 2.0,
}
F3_ENTANGLED = (("a", "b"), ("p", "q"))
F3_ENTANGLED_CAPACITY = 3.0
F3_PATHS = (
    (("s", "a"), ("a", "b"), ("b", "t")),
    (("s", "a"), ("a", "q"), ("q", "t")),
    (("s", "p"), ("p", "q"), ("q", "t")),
)


def _f3_feasible(path_flows: list[float]) -> bool:
    for edge, capacity in F3_EDGES.items():
        used = sum(flow for flow, path in zip(path_flows, F3_PATHS) if edge in path)
        if used > capacity + 1e-9:
            return False
    entangled_used = sum(
        flow
        for flow, path in zip(path_flows, F3_PATHS)
        if any(edge in path for edge in F3_ENTANGLED)
    )
    return entangled_used <= F3_ENTANGLED_CAPACITY + 1e-9


def _f3_max_flow(integral: bool) -> float:
    if integral:
        from itertools import product

        best = 0.0
        for assignment in product(range(4), repeat=len(F3_PATHS)):
            flows = [float(v) for v in assignment]
            if _f3_feasible(flows):
                best = max(best, sum(flows))
        return best
    builder = SparseLPBuilder(name="figure-3", objective_sense=Objective.MAXIMIZE)
    path_vars = builder.add_variables(len(F3_PATHS), 0.0, np.inf, name="path")
    builder.add_objective_terms(path_vars, np.ones(len(F3_PATHS)))
    rows = [((edge,), capacity) for edge, capacity in F3_EDGES.items()]
    rows.append((F3_ENTANGLED, F3_ENTANGLED_CAPACITY))
    for members, capacity in rows:
        # A path counts against a row if it uses any of the row's edges.
        users = [i for i, path in enumerate(F3_PATHS) if any(edge in path for edge in members)]
        ones = np.ones(len(users))
        builder.add_block("capacity", np.zeros_like(ones), path_vars[users], ones, [capacity])
    solution = solve_compiled(builder.build()[0])
    if not solution.is_optimal:
        raise AssertionError("Figure-3 LP did not reach optimality")
    return solution.objective


def _f3_toy_rows() -> list[dict]:
    fractional = _f3_max_flow(integral=False)
    integral = _f3_max_flow(integral=True)
    return [
        {"quantity": "fractional max flow", "paper": 3.5, "measured": fractional},
        {"quantity": "integral max flow", "paper": 3.0, "measured": integral},
        {
            "quantity": "entangled-set capacity",
            "paper": 3.0,
            "measured": F3_ENTANGLED_CAPACITY,
        },
    ]


def _f3_scale_row(task: dict) -> dict:
    """Measured LP-vs-OPT integrality gap on an internet-scale instance.

    The paper compares its heuristic against the LP relaxation because the
    integer optimum is intractable; with the ``milp-exact`` designer the
    *true* optimum is computable at hundreds of sinks, so this row reports
    the gap the paper could only bound: ``OPT / LP``.
    """
    from repro.workloads.internet_scale import (
        InternetScaleConfig,
        generate_internet_scale_problem,
    )

    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=task["sinks"]), rng=task["rng"]
    )
    start = time.perf_counter()
    lp = get_designer("lp-bound").design(DesignRequest(problem=problem))
    lp_seconds = time.perf_counter() - start
    start = time.perf_counter()
    milp = get_designer("milp-exact").design(DesignRequest(problem=problem))
    milp_seconds = time.perf_counter() - start
    lp_bound = lp.lower_bound
    milp_cost = milp.metadata["optimal_cost"]
    return {
        "quantity": f"integrality gap @ {task['sinks']} sinks",
        "sinks": task["sinks"],
        "reflectors": problem.num_reflectors,
        "lp_bound": lp_bound,
        "milp_cost": milp_cost,
        "integrality_gap": milp_cost / max(lp_bound, 1e-9),
        "milp_status": milp.metadata["milp_status"],
        "milp_nodes": milp.metadata["node_count"],
        "symmetry_rows": milp.metadata["symmetry_rows"],
        "lp_seconds": lp_seconds,
        "milp_seconds": milp_seconds,
    }


def f3_task(task: dict) -> list[dict]:
    if task.get("kind") == "scale":
        return [_f3_scale_row(task)]
    return _f3_toy_rows()


def f3_tasks(master_seed: int, smoke: bool) -> list[dict]:
    sizes = (120,) if smoke else (120, 300, 500)
    return [{"kind": "toy"}] + [
        {"kind": "scale", "sinks": sinks, "rng": 0} for sinks in sizes
    ]


def f3_metrics(rows: list[dict]) -> dict[str, float]:
    by_quantity = {row["quantity"]: row["measured"] for row in rows if "measured" in row}
    metrics = {
        "fractional_max_flow": by_quantity["fractional max flow"],
        "integral_max_flow": by_quantity["integral max flow"],
    }
    for row in rows:
        if "integrality_gap" in row:
            metrics[f"integrality_gap_{row['sinks']}"] = row["integrality_gap"]
            metrics[f"milp_cost_{row['sinks']}"] = row["milp_cost"]
            metrics[f"lp_bound_{row['sinks']}"] = row["lp_bound"]
    return metrics


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


# ---------------------------------------------------------------------------
# T8 -- sharded vs monolithic design on internet-scale instances
# ---------------------------------------------------------------------------


def t8_task(task: dict) -> dict:
    from repro.workloads.internet_scale import (
        InternetScaleConfig,
        generate_internet_scale_problem,
    )

    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=task["sinks"]), rng=task["rng"]
    )
    parameters = DesignParameters(seed=task["seed"], repair_shortfall=True)

    start = time.perf_counter()
    monolithic = get_designer("spaa03").design(
        DesignRequest(problem=problem, parameters=parameters)
    )
    monolithic_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sharded = get_designer("sharded:spaa03").design(
        DesignRequest(
            problem=problem,
            strategy="sharded:spaa03",
            parameters=parameters,
            options={"shards": task["shards"], "jobs": task["jobs"]},
        )
    )
    sharded_seconds = time.perf_counter() - start

    return {
        "sinks": problem.num_sinks,
        "demands": problem.num_demands,
        "reflectors": problem.num_reflectors,
        "num_shards": sharded.metadata["num_shards"],
        "jobs": task["jobs"],
        "monolithic_cost": monolithic.total_cost,
        "sharded_cost": sharded.total_cost,
        "sharded_vs_monolithic_cost_ratio": sharded.total_cost
        / max(monolithic.total_cost, 1e-9),
        "monolithic_unserved": monolithic.audit.unserved_demands,
        "sharded_unserved": sharded.audit.unserved_demands,
        "monolithic_min_weight_fraction": monolithic.audit.min_weight_fraction,
        "sharded_min_weight_fraction": sharded.audit.min_weight_fraction,
        "sharded_max_fanout_factor": sharded.audit.max_fanout_factor,
        "stitch_dropped": sharded.metadata["stitch_assignments_dropped"],
        "stitch_moved": sharded.metadata["stitch_assignments_moved"],
        "stitch_unresolved_overloads": sharded.metadata["stitch_unresolved_overloads"],
        "monolithic_seconds": monolithic_seconds,
        "sharded_seconds": sharded_seconds,
        # Wall-clock-derived; deliberately NOT a comparable metric (like the
        # R1 engine speedup, it is gated by validate, not by the baseline).
        "speedup_vs_monolithic": monolithic_seconds / max(sharded_seconds, 1e-9),
    }


def t8_tasks(master_seed: int, smoke: bool) -> list[dict]:
    # One task: the monolithic side of the full run takes ~10 minutes at 10k
    # sinks (the Section-2 LP solve is superlinear), which is exactly the
    # point of the comparison.  The smoke tier keeps CI minutes low while
    # still exercising partition -> fan-out -> stitch end to end.
    return [
        {
            "sinks": 600 if smoke else 10_000,
            "rng": 0,
            "seed": master_seed,
            "shards": "auto",
            "jobs": "auto",
        }
    ]


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


register_scenario(
    ScenarioSpec(
        scenario_id="t8",
        suites=("scale", "perf"),
        title="T8: hierarchical sharded pipeline vs monolithic design "
        "(internet-scale workload)",
        task_fn=t8_task,
        make_tasks=t8_tasks,
        policies={
            "monolithic_cost": MetricPolicy("lower", rel_tol=0.05),
            "sharded_cost": MetricPolicy("lower", rel_tol=0.05),
            "sharded_vs_monolithic_cost_ratio": MetricPolicy("lower", abs_tol=0.05),
            "monolithic_unserved": MetricPolicy("equal", rel_tol=0.0),
            "sharded_unserved": MetricPolicy("equal", rel_tol=0.0),
            "sharded_min_weight_fraction": MetricPolicy("higher", abs_tol=0.05),
            "sharded_max_fanout_factor": MetricPolicy("lower", abs_tol=0.25),
        },
        validate=t8_validate,
        artifact="T8_sharded_scale",
        columns=[
            "sinks",
            "demands",
            "num_shards",
            "monolithic_cost",
            "sharded_cost",
            "sharded_vs_monolithic_cost_ratio",
            "sharded_unserved",
            "sharded_max_fanout_factor",
            "monolithic_seconds",
            "sharded_seconds",
            "speedup_vs_monolithic",
        ],
        description="Cost parity (<= 1.15x) and wall-clock speedup (>= 4x full "
        "size) of the partition -> per-shard design -> stitch pipeline.",
    )
)


register_scenario(
    ScenarioSpec(
        scenario_id="f3",
        suites=("figures",),
        title="Figure 3 reproduction: integral 3 vs fractional 3.5, plus the "
        "measured LP-vs-OPT gap at 100-500 sinks",
        task_fn=f3_task,
        make_tasks=f3_tasks,
        policies={
            "fractional_max_flow": MetricPolicy("equal", rel_tol=1e-6, abs_tol=1e-6),
            "integral_max_flow": MetricPolicy("equal", rel_tol=1e-9, abs_tol=1e-9),
            # The MILP optimum and LP bound are deterministic for a fixed
            # instance; the loose tolerance absorbs solver-version drift.
            "integrality_gap_120": MetricPolicy("lower", rel_tol=0.02),
            "milp_cost_120": MetricPolicy("lower", rel_tol=0.02),
            "lp_bound_120": MetricPolicy("equal", rel_tol=1e-3),
        },
        derive_metrics=f3_metrics,
        validate=f3_validate,
        artifact="F3_integrality_gap",
        columns=[
            "quantity",
            "paper",
            "measured",
            "lp_bound",
            "milp_cost",
            "integrality_gap",
            "milp_status",
            "milp_nodes",
            "symmetry_rows",
            "milp_seconds",
        ],
        description="The entangled-set integrality gap motivating the Section-6 "
        "rounding, and the true Section-2 integrality gap (milp-exact vs "
        "lp-bound) measured on internet-scale instances.",
    )
)


# ---------------------------------------------------------------------------
# I1 -- incremental update vs from-scratch re-design after sink churn
# ---------------------------------------------------------------------------


def i1_task(task: dict) -> dict:
    from repro.api import design_incremental
    from repro.incremental import SinkChurnConfig, churn_stream
    from repro.workloads.internet_scale import (
        InternetScaleConfig,
        generate_internet_scale_problem,
    )

    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=task["sinks"]), rng=task["rng"]
    )
    parameters = DesignParameters(seed=task["seed"])
    designer = get_designer(f"sharded:{task['inner']}")

    # The standing design is shared setup, not part of the comparison; it may
    # fan out over workers (the merged design is jobs-independent).
    standing = designer.design(
        DesignRequest(
            problem=problem,
            strategy=designer.name,
            parameters=parameters,
            options={"shards": "auto", "jobs": task["setup_jobs"]},
        )
    )

    ((_event, delta, new_problem),) = list(
        churn_stream(
            problem,
            ["sink-churn"],
            seed=task["churn_seed"],
            churn_config=SinkChurnConfig(fraction=task["churn_fraction"]),
        )
    )

    # Both timed sides run jobs=1: the comparison is work done, not worker
    # count, which keeps the speedup machine-independent and deterministic.
    start = time.perf_counter()
    incremental = design_incremental(
        standing,
        new_problem,
        parameters=parameters,
        options={"shards": "auto", "jobs": 1},
        previous_problem=problem,
        delta=delta,
    )
    incremental_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scratch = designer.design(
        DesignRequest(
            problem=new_problem,
            strategy=designer.name,
            parameters=parameters,
            options={"shards": "auto", "jobs": 1},
        )
    )
    scratch_seconds = time.perf_counter() - start

    return {
        "sinks": problem.num_sinks,
        "demands": problem.num_demands,
        "sinks_added": delta.summary()["sinks_added"],
        "sinks_removed": delta.summary()["sinks_removed"],
        "dirty_shards": incremental.metadata.get("incremental_dirty_shards", 0),
        "num_shards": incremental.metadata.get("num_shards", 0),
        "reused_assignments": incremental.metadata.get(
            "incremental_reused_assignments", 0
        ),
        "incremental_cost": incremental.total_cost,
        "scratch_cost": scratch.total_cost,
        "incremental_vs_scratch_cost_ratio": incremental.total_cost
        / max(scratch.total_cost, 1e-9),
        "incremental_unserved": incremental.audit.unserved_demands,
        "scratch_unserved": scratch.audit.unserved_demands,
        "incremental_min_weight_fraction": incremental.audit.min_weight_fraction,
        "incremental_max_fanout_factor": incremental.audit.max_fanout_factor,
        "incremental_seconds": incremental_seconds,
        "scratch_seconds": scratch_seconds,
        # Wall-clock-derived; deliberately NOT a comparable metric (like the
        # T8 speedup, it is gated by validate, not by the baseline).
        "speedup_vs_scratch": scratch_seconds / max(incremental_seconds, 1e-9),
    }


def i1_tasks(master_seed: int, smoke: bool) -> list[dict]:
    # One task: 5% sink churn against a standing internet-scale design.  The
    # smoke tier keeps CI minutes low while exercising the whole diff ->
    # impact -> residual re-solve -> stitch path end to end.
    return [
        {
            "sinks": 600 if smoke else 10_000,
            "rng": 0,
            "seed": master_seed,
            "inner": "spaa03",
            "setup_jobs": "auto",
            "churn_seed": master_seed + 1,
            "churn_fraction": 0.05,
        }
    ]


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


register_scenario(
    ScenarioSpec(
        scenario_id="i1",
        suites=("scale", "perf"),
        title="I1: incremental update vs from-scratch re-design "
        "(5% sink churn, internet-scale workload)",
        task_fn=i1_task,
        make_tasks=i1_tasks,
        policies={
            "incremental_cost": MetricPolicy("lower", rel_tol=0.05),
            "scratch_cost": MetricPolicy("lower", rel_tol=0.05),
            "incremental_vs_scratch_cost_ratio": MetricPolicy("lower", abs_tol=0.05),
            "incremental_unserved": MetricPolicy("equal", rel_tol=0.0),
            "dirty_shards": MetricPolicy("equal", rel_tol=0.0),
            "incremental_min_weight_fraction": MetricPolicy("higher", abs_tol=0.05),
            "incremental_max_fanout_factor": MetricPolicy("lower", abs_tol=0.25),
        },
        validate=i1_validate,
        artifact="I1_incremental_churn",
        columns=[
            "sinks",
            "sinks_added",
            "sinks_removed",
            "dirty_shards",
            "num_shards",
            "incremental_cost",
            "scratch_cost",
            "incremental_vs_scratch_cost_ratio",
            "incremental_unserved",
            "incremental_seconds",
            "scratch_seconds",
            "speedup_vs_scratch",
        ],
        description="Cost parity (<= 1.05x) and wall-clock speedup (>= 10x full "
        "size) of the incremental engine against a from-scratch sharded run "
        "after 5% sink churn.",
    )
)


# ---------------------------------------------------------------------------
# S1 -- design-service latency: fresh vs repeat digests, session vs updates
# ---------------------------------------------------------------------------


def _s1_percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (matches the service's /stats convention)."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def _s1_comparable(document: dict) -> dict:
    """A result document minus per-request provenance (timings, cache, id)."""
    stripped = dict(document)
    for key in ("stage_seconds", "cache", "request_id"):
        stripped.pop(key, None)
    return stripped


def s1_task(task: dict) -> dict:
    import json

    from repro.api import design_incremental, result_to_dict
    from repro.core.serialization import (
        problem_from_dict,
        problem_to_dict,
        solution_digest,
        solution_from_dict,
        solution_to_dict,
    )
    from repro.incremental import diff_problems
    from repro.incremental.churn import (
        SinkChurnConfig,
        flash_crowd_delta,
        sample_sink_churn,
    )
    from repro.incremental.delta import apply_delta
    from repro.serve import ArtifactCache, DesignService, DesignSession
    from repro.workloads.internet_scale import (
        InternetScaleConfig,
        generate_internet_scale_problem,
    )

    parameters = DesignParameters(seed=task["seed"])
    sharded_options = {"shards": "auto", "jobs": 1}

    problems = []
    for index in range(task["fresh"]):
        problem, _registry = generate_internet_scale_problem(
            InternetScaleConfig(num_sinks=task["sinks"]), rng=task["rng"] + index
        )
        problems.append(problem)

    def make_request(problem):
        return DesignRequest(
            problem=problem,
            parameters=parameters,
            strategy="sharded:spaa03",
            options=dict(sharded_options),
        )

    cache = ArtifactCache()
    fresh_latencies: list[float] = []
    repeat_latencies: list[float] = []
    payload_mismatches = 0
    baselines: list[dict] = []

    with DesignService(cache=cache, workers=task["workers"]) as service:
        # Fresh leg: every problem is a new digest, so each request pays the
        # full pipeline.
        for problem in problems:
            start = time.perf_counter()
            result = service.run(make_request(problem))
            fresh_latencies.append(time.perf_counter() - start)
            baselines.append(_s1_comparable(result_to_dict(result)))

        # Repeat leg: the same digests again, served from the result cache.
        # Payloads must be bit-identical modulo per-request provenance.
        for _round in range(task["repeats"]):
            for index, problem in enumerate(problems):
                start = time.perf_counter()
                result = service.run(make_request(problem))
                repeat_latencies.append(time.perf_counter() - start)
                if _s1_comparable(result_to_dict(result)) != baselines[index]:
                    payload_mismatches += 1

        # Dedup burst: two in-flight submissions of one digest.  Clearing the
        # cache first makes the first submission recompute, so the second
        # really joins an in-flight future instead of hitting the result
        # cache.
        cache.clear()
        tickets = [service.submit(make_request(problems[0])) for _ in range(2)]
        for ticket in tickets:
            ticket.result()
        stats = service.stats()

    # Churn leg: a 5-event stream through one DesignSession (standing plan +
    # stage cache reuse, all in memory) against five independent
    # ``repro update``-equivalent calls, each paying the JSON round-trip,
    # problem diff and fresh partition a standalone CLI invocation pays.
    # Events are deliberately *small* relative to the instance (a few
    # congested metros, 1% sink churn) -- the live-churn regime the session
    # exists for, where the per-call serving overhead is what differs: the
    # re-design work itself is bit-identical on both sides by construction.
    base_problem = problems[0]
    stream = []
    current_state = base_problem
    for index, event in enumerate(task["events"]):
        rng = np.random.default_rng([task["churn_seed"], index])
        if event == "flash-crowd":
            delta = flash_crowd_delta(
                current_state, rng, hot_fraction=task["hot_fraction"]
            )
        elif event == "sink-churn":
            delta = sample_sink_churn(
                current_state, SinkChurnConfig(fraction=task["churn_fraction"]), rng
            )
        else:  # pragma: no cover - guarded by s1_tasks
            raise ValueError(f"unknown s1 churn event {event!r}")
        current_state = apply_delta(current_state, delta)
        stream.append((event, delta, current_state))

    session = DesignSession(
        base_problem,
        strategy="sharded:spaa03",
        parameters=parameters,
        options=dict(sharded_options),
        cache=cache,
        session_id="s1",
    )
    initial = session.ensure_design()

    session_start = time.perf_counter()
    for _event, delta, _new_problem in stream:
        session_result = session.apply_delta(delta)
    session_seconds = time.perf_counter() - session_start

    problem_doc = json.dumps(problem_to_dict(base_problem), sort_keys=True)
    solution_doc = json.dumps(solution_to_dict(initial.solution), sort_keys=True)
    independent_start = time.perf_counter()
    for _event, _delta, new_problem in stream:
        previous_problem = problem_from_dict(json.loads(problem_doc))
        previous_solution = solution_from_dict(
            json.loads(solution_doc), previous_problem
        )
        fresh_problem = problem_from_dict(json.loads(json.dumps(problem_to_dict(new_problem), sort_keys=True)))
        delta = diff_problems(previous_problem, fresh_problem)
        independent_result = design_incremental(
            previous_solution,
            fresh_problem,
            parameters=parameters,
            options=dict(sharded_options),
            previous_problem=previous_problem,
            delta=delta,
        )
        problem_doc = json.dumps(problem_to_dict(fresh_problem), sort_keys=True)
        solution_doc = json.dumps(
            solution_to_dict(independent_result.solution), sort_keys=True
        )
    independent_seconds = time.perf_counter() - independent_start

    session_summary = session.summary()
    return {
        "sinks": base_problem.num_sinks,
        "demands": base_problem.num_demands,
        "fresh_requests": len(fresh_latencies),
        "repeat_requests": len(repeat_latencies),
        "repeat_payload_identical": int(payload_mismatches == 0),
        "deduplicated": stats["deduplicated"],
        "cache_hits": stats["cache"]["hits"],
        "fresh_p50_seconds": _s1_percentile(fresh_latencies, 0.50),
        "fresh_p99_seconds": _s1_percentile(fresh_latencies, 0.99),
        "repeat_p50_seconds": _s1_percentile(repeat_latencies, 0.50),
        "repeat_p99_seconds": _s1_percentile(repeat_latencies, 0.99),
        "service_p50_seconds": stats["latency_p50_seconds"],
        "service_p99_seconds": stats["latency_p99_seconds"],
        # Wall-clock-derived; like the I1/T8 speedups these are gated by
        # validate (full size only), never compared against a baseline.
        "repeat_speedup": (
            _s1_percentile(fresh_latencies, 0.50)
            / max(_s1_percentile(repeat_latencies, 0.50), 1e-9)
        ),
        "churn_events": len(stream),
        "plan_reuse_events": session_summary["plan_reuses"],
        "session_seconds": session_seconds,
        "independent_seconds": independent_seconds,
        "session_speedup": independent_seconds / max(session_seconds, 1e-9),
        "session_matches_independent": int(
            solution_digest(session_result.solution)
            == solution_digest(independent_result.solution)
        ),
        "session_final_cost": session_result.total_cost,
        "session_unserved": (
            session_result.audit.unserved_demands
            if session_result.audit is not None
            else 0
        ),
    }


def s1_tasks(master_seed: int, smoke: bool) -> list[dict]:
    # One task: a mixed serving workload (3 fresh digests, each repeated 3x,
    # one dedup burst) plus a 5-event churn stream.  Internet-scale instances
    # (like I1) so the full-size wall-clock gates measure design work against
    # the O(n) canonicalization a cache hit still pays.  Churn events stay
    # small (3% hot sinks, 1% churn) -- flash crowds keep the sink set
    # stable and exercise the session's plan rebind; sink churn forces a
    # rebuild.
    return [
        {
            "sinks": 400 if smoke else 10_000,
            "rng": 100,
            "seed": master_seed,
            "fresh": 3,
            "repeats": 3,
            "workers": 2,
            "churn_seed": master_seed + 1,
            "hot_fraction": 0.03,
            "churn_fraction": 0.01,
            "events": (
                "flash-crowd",
                "sink-churn",
                "flash-crowd",
                "sink-churn",
                "flash-crowd",
            ),
        }
    ]


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


register_scenario(
    ScenarioSpec(
        scenario_id="s1",
        suites=("serve", "perf"),
        title="S1: design-service latency under a mixed fresh/repeat/churn "
        "workload",
        task_fn=s1_task,
        make_tasks=s1_tasks,
        policies={
            "sinks": MetricPolicy("equal", rel_tol=0.0),
            "demands": MetricPolicy("equal", rel_tol=0.0),
            "repeat_payload_identical": MetricPolicy("equal", rel_tol=0.0),
            "session_matches_independent": MetricPolicy("equal", rel_tol=0.0),
            "session_unserved": MetricPolicy("equal", rel_tol=0.0),
            "plan_reuse_events": MetricPolicy("higher", abs_tol=0.0),
            "session_final_cost": MetricPolicy("lower", rel_tol=0.05),
        },
        validate=s1_validate,
        artifact="S1_serving",
        columns=[
            "sinks",
            "demands",
            "fresh_requests",
            "repeat_requests",
            "fresh_p50_seconds",
            "repeat_p50_seconds",
            "repeat_speedup",
            "repeat_payload_identical",
            "deduplicated",
            "plan_reuse_events",
            "session_seconds",
            "independent_seconds",
            "session_speedup",
            "session_matches_independent",
        ],
        description="Serving-front latency percentiles for fresh vs "
        "repeat-digest requests (bit-identical payloads, >= 10x faster at "
        "full size), in-flight dedup, and a 5-event churn stream through one "
        "DesignSession against five independent update calls.",
    )
)


# ---------------------------------------------------------------------------
# R3 -- streaming million-demand reliability audit (memory-bounded folds)
# ---------------------------------------------------------------------------


def r3_task(task: dict) -> list[dict]:
    """Design one internet-scale instance, then audit it along a trial ladder.

    One row per ladder rung, each measuring the streaming fold alone: the
    path table is compiled (and the design produced) before ``tracemalloc``
    starts, so ``peak_rss_bytes`` is the audit's working set -- tile buffers,
    tile tasks, and the per-demand accumulators.  The rung results must be
    flat in the trial count: that is the memory contract of
    :func:`repro.simulation.run_streaming_monte_carlo`.
    """
    import tracemalloc

    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=task["sinks"]), rng=task["rng"]
    )
    solution = (
        get_designer(task["designer"])
        .design(
            DesignRequest(
                problem=problem, parameters=DesignParameters(seed=task["seed"])
            )
        )
        .solution
    )
    node_isp = {r: problem.color(r) for r in problem.reflectors}
    table = compile_path_table(
        problem, solution, FailureSchedule(), task["packets"], node_isp
    )

    matches_batched = None
    if task["differential"]:
        # Bit-identical leg: a single-tile streaming run shares the batched
        # engine's draw order exactly (same per-tile stream, one tile).
        trials = task["trial_ladder"][0]
        single = run_streaming_monte_carlo(
            problem,
            solution,
            StreamingConfig(
                num_packets=task["packets"],
                trials=trials,
                window=task["window"],
                seed=task["eval_seed"],
                demand_tile=10**9,
                trial_tile=10**9,
            ),
            node_isp=node_isp,
            table=table,
        )
        batched = run_monte_carlo(
            problem,
            solution,
            MonteCarloConfig(
                num_packets=task["packets"],
                trials=trials,
                window=task["window"],
                max_batch_bytes=2**40,
            ),
            rng=np.random.default_rng(np.random.SeedSequence([task["eval_seed"], 0])),
        )
        # The batched report lists demands in problem order and aggregates
        # per-trial floats; align by key and compare the *exact* integer
        # sufficient statistics (loss counts and lcm-scaled worst windows are
        # recoverable bit-for-bit from the correctly-rounded trial floats).
        served = len(table.demand_keys)
        by_key = {d.demand_key: d for d in batched.demands}
        aligned = [by_key[key] for key in single.demand_keys[:served]]
        counts = np.rint(
            np.stack([d.loss for d in aligned]) * task["packets"]
        ).astype(np.int64)
        scale = single.accumulator.worst_scale
        worst = np.rint(
            np.stack([d.worst_window for d in aligned]) * scale
        ).astype(np.int64)
        duplicates = np.stack([d.duplicates for d in aligned])
        accumulator = single.accumulator
        matches_batched = bool(
            np.array_equal(accumulator.loss_sum[:served], counts.sum(axis=1))
            and np.array_equal(accumulator.loss_max[:served], counts.max(axis=1))
            and np.array_equal(accumulator.worst_sum[:served], worst.sum(axis=1))
            and np.array_equal(accumulator.worst_max[:served], worst.max(axis=1))
            and np.array_equal(
                accumulator.duplicates_sum[:served], duplicates.sum(axis=1)
            )
            and np.array_equal(
                single.meets_threshold_fraction[:served],
                np.asarray([d.meets_threshold_fraction for d in aligned]),
            )
        )

    rows = []
    for trials in task["trial_ladder"]:
        streaming_config = StreamingConfig(
            num_packets=task["packets"],
            trials=trials,
            window=task["window"],
            seed=task["eval_seed"],
            max_memory=task["max_memory"],
        )
        tracemalloc.start()
        start = time.perf_counter()
        report = run_streaming_monte_carlo(
            problem,
            solution,
            streaming_config,
            node_isp=node_isp,
            table=table,
            traces=tuple(task["traces"]),
        )
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        row = {
            "sinks": task["sinks"],
            "trials": trials,
            "packets": task["packets"],
            "demands": report.num_demands,
            "served_demands": len(table.demand_keys),
            "num_tiles": report.plan.num_tiles,
            "mean_loss": report.mean_loss,
            "max_loss": report.max_loss,
            "mean_worst_window_loss": report.mean_worst_window,
            "fraction_meeting_threshold": report.fraction_meeting_threshold,
            "peak_rss_bytes": int(peak),
            "rss_budget": task["rss_budget"],
            "matches_batched": matches_batched,
            "audit_seconds": elapsed,
        }
        for name in sorted(report.traces):
            summary = report.traces[name].summary()
            key = name.replace("-", "_")
            row[f"{key}_peak_window_loss"] = summary["peak_window_loss"]
            row[f"{key}_rebuffer_session_fraction"] = summary[
                "rebuffer_session_fraction"
            ]
        rows.append(row)
    return rows


def r3_tasks(master_seed: int, smoke: bool) -> list[dict]:
    if smoke:
        return [
            {
                "sinks": 50_000,
                "rng": master_seed * 100 + 7,
                "designer": "naive-quality-first",
                "seed": master_seed,
                "eval_seed": master_seed + 31,
                "packets": 500,
                "window": 100,
                "trial_ladder": [2, 4, 8],
                "max_memory": 64 * 2**20,
                "rss_budget": 256 * 2**20,
                "traces": ["diurnal", "metro-diurnal"],
                "differential": True,
            }
        ]
    return [
        {
            "sinks": 1_000_000,
            "rng": master_seed * 100 + 7,
            "designer": "naive-quality-first",
            "seed": master_seed,
            "eval_seed": master_seed + 31,
            "packets": 500,
            "window": 100,
            "trial_ladder": [100, 1000],
            "max_memory": 256 * 2**20,
            "rss_budget": 1536 * 2**20,
            "traces": ["diurnal", "metro-diurnal"],
            # A single-tile run over 1M x 100 trials cannot fit in RAM --
            # exactly why the streaming engine exists; the bit-identity claim
            # is carried by the smoke leg and tests/test_streaming.py.
            "differential": False,
        }
    ]


def r3_metrics(rows: list[dict]) -> dict[str, float]:
    last = rows[-1]
    peaks = [row["peak_rss_bytes"] for row in rows]
    out = {
        "mean_loss": last["mean_loss"],
        "fraction_meeting_threshold": last["fraction_meeting_threshold"],
        "rss_flatness_ratio": max(peaks) / min(peaks),
    }
    if rows[0]["matches_batched"] is not None:
        out["streaming_matches_batched"] = float(rows[0]["matches_batched"])
    return out


def r3_validate(record: BenchRecord) -> list[str]:
    failures = []
    for row in record.rows:
        label = f"{row['sinks']} sinks x {row['trials']} trials"
        if row["peak_rss_bytes"] > row["rss_budget"]:
            failures.append(
                f"{label}: audit peak {row['peak_rss_bytes']} bytes exceeds the "
                f"{row['rss_budget']}-byte budget"
            )
        if row["matches_batched"] is False:
            failures.append(
                f"{label}: single-tile streaming run diverges from the batched engine"
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
            "streaming peak memory grows with the trial count "
            f"(ladder peaks: {peaks}); the fold is supposed to be flat"
        )
    return failures


register_scenario(
    ScenarioSpec(
        scenario_id="r3",
        title="R3: streaming million-demand reliability audit (flat-RSS fold)",
        task_fn=r3_task,
        make_tasks=r3_tasks,
        policies={
            # Streaming results are a pure function of the seeds and the
            # effective tile grid, so the statistics are drift-gated exactly.
            "mean_loss": MetricPolicy("equal", rel_tol=1e-9, abs_tol=1e-12),
            "fraction_meeting_threshold": MetricPolicy(
                "equal", rel_tol=1e-9, abs_tol=1e-12
            ),
            "streaming_matches_batched": MetricPolicy("higher", rel_tol=0.0),
            # Allocator layout shifts move tracemalloc peaks a little.
            "rss_flatness_ratio": MetricPolicy("lower", abs_tol=0.25),
        },
        derive_metrics=r3_metrics,
        validate=r3_validate,
        artifact="R3_streaming_audit",
        columns=[
            "sinks",
            "trials",
            "packets",
            "demands",
            "served_demands",
            "num_tiles",
            "mean_loss",
            "max_loss",
            "mean_worst_window_loss",
            "fraction_meeting_threshold",
            "peak_rss_bytes",
            "matches_batched",
            "audit_seconds",
            "diurnal_peak_window_loss",
            "diurnal_rebuffer_session_fraction",
            "metro_diurnal_peak_window_loss",
            "metro_diurnal_rebuffer_session_fraction",
        ],
        suites=("reliability", "scale"),
        description="Memory-bounded streaming audit of an internet-scale design: "
        "trial-ladder peak-RSS flatness under a working-set budget, bit-identity "
        "of the single-tile run vs the batched engine, and diurnal trace replay "
        "(smoke: 50k sinks; full: 1M sinks x 1k trials).",
    )
)


# ---------------------------------------------------------------------------
# A1 -- designer vs adversary: worst-case catalogue search on the as-geo tier
# ---------------------------------------------------------------------------

#: Strategies facing the adversary, in presentation order.  The extended
#: pipeline keeps its ISP-diversity (color) constraints; the baselines are
#: exactly the comparison strategies of the paper's Section 6 discussion.
A1_DESIGNERS = ("spaa03-extended", "greedy", "single-tree")


def a1_task(task: dict) -> list[dict]:
    problem, _registry = generate_as_geo_problem(
        AsGeoConfig(num_sinks=task["sinks"], num_metros=task["metros"]),
        rng=task["rng"],
    )
    designs = {}
    costs = {}
    extended = get_designer("spaa03-extended").design(
        DesignRequest(
            problem=problem,
            parameters=color_constrained_parameters(
                DesignParameters(seed=task["seed"], repair_shortfall=True)
            ),
        )
    )
    designs["spaa03-extended"] = extended.solution
    costs["spaa03-extended"] = extended.total_cost
    for name in ("greedy", "single-tree"):
        result = get_designer(name).design(
            DesignRequest(
                problem=problem, parameters=DesignParameters(seed=task["seed"])
            )
        )
        designs[name] = result.solution
        costs[name] = result.total_cost
    rows = []
    for design_name in A1_DESIGNERS:
        solution = designs[design_name]
        start = time.perf_counter()
        # The sweep passes the solution into scenario realization, so the
        # targeted-attack primitives knock out the reflectors this specific
        # design actually leans on (assignment-path betweenness).
        swept = evaluate_design(
            problem,
            solution,
            trials=task["trials"],
            num_packets=task["packets"],
            window=task["window"],
            seed=task["eval_seed"],
        )
        sweep_seconds = time.perf_counter() - start
        attacks = {name: m for name, m in swept.items() if name != "baseline"}
        adversary_pick = max(
            attacks, key=lambda name: (attacks[name]["mean_loss"], name)
        )
        for scenario_name, metrics in swept.items():
            rows.append(
                {
                    "design": design_name,
                    "scenario": scenario_name,
                    "mean_loss": metrics["mean_loss"],
                    "mean_loss_ci95": metrics["mean_loss_ci95"],
                    "fraction_meeting_threshold": metrics[
                        "fraction_meeting_threshold"
                    ],
                    "mean_worst_window_loss": metrics["mean_worst_window_loss"],
                    "failure_events": metrics["failure_events"],
                    "design_cost": costs[design_name],
                    "adversary_pick": scenario_name == adversary_pick,
                    "sweep_seconds": sweep_seconds,
                }
            )
    return rows


def a1_tasks(master_seed: int, smoke: bool) -> list[dict]:
    return [
        {
            "sinks": 300 if smoke else 600,
            "metros": 16 if smoke else 24,
            "rng": 0,
            "seed": master_seed,
            "eval_seed": master_seed + 11,
            "trials": 20 if smoke else 50,
            "packets": 800 if smoke else 1500,
            "window": 160,
        }
    ]


def a1_metrics(rows: list[dict]) -> dict[str, float]:
    by_key = {(row["design"], row["scenario"]): row for row in rows}
    scenarios = sorted({row["scenario"] for row in rows})
    worst = {}
    out = {}
    for design in A1_DESIGNERS:
        key = design.replace("-", "_")
        worst[design] = max(
            by_key[(design, name)]["mean_loss"]
            for name in scenarios
            if name != "baseline"
        )
        out[f"{key}_adversary_worst_loss"] = worst[design]
        out[f"{key}_baseline_loss"] = by_key[(design, "baseline")]["mean_loss"]
    out["extended_vs_greedy_margin"] = worst["greedy"] - worst["spaa03-extended"]
    out["extended_vs_single_tree_margin"] = (
        worst["single-tree"] - worst["spaa03-extended"]
    )
    return out


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


register_scenario(
    ScenarioSpec(
        scenario_id="a1",
        title="A1: designer vs adversary on the AS/geo workload",
        task_fn=a1_task,
        make_tasks=a1_tasks,
        policies={
            "spaa03_extended_adversary_worst_loss": MetricPolicy(
                "lower", abs_tol=0.02
            ),
            "spaa03_extended_baseline_loss": MetricPolicy("lower", abs_tol=0.01),
            "greedy_adversary_worst_loss": MetricPolicy("equal", rel_tol=0.25),
            "single_tree_adversary_worst_loss": MetricPolicy("equal", rel_tol=0.25),
            "extended_vs_greedy_margin": MetricPolicy("higher", abs_tol=0.005),
            "extended_vs_single_tree_margin": MetricPolicy("higher", abs_tol=0.02),
        },
        derive_metrics=a1_metrics,
        validate=a1_validate,
        artifact="A1_designer_vs_adversary",
        columns=[
            "design",
            "scenario",
            "mean_loss",
            "mean_loss_ci95",
            "fraction_meeting_threshold",
            "mean_worst_window_loss",
            "failure_events",
            "design_cost",
            "adversary_pick",
            "sweep_seconds",
        ],
        suites=("reliability",),
        description="Worst-case search over the full scenario catalogue (built-in "
        "+ shipped DSL scenarios, incl. betweenness-targeted attacks) per design "
        "on the AS/geo workload; the ISP-diversity extension must strictly beat "
        "greedy and single-tree at their respective adversarial worst cases.",
    )
)
