"""The registered scenario catalogue: every paper experiment as a ScenarioSpec.

Each experiment is declared here as a
:class:`~repro.analysis.runner.ScenarioSpec`: a list of picklable task dicts
(workload family x size x seed block x design parameters), a module-level
task function that measures one unit, per-metric comparison policies, and
its paper-shape thresholds as :class:`~repro.analysis.runner.Gate` rows
(plus, where a gate compares rows or does arithmetic, a ``*_gate_values``
function).  ``repro bench`` runs these specs through
:func:`repro.analysis.runner.run_scenario` and checks them with
:func:`repro.analysis.runner.check_gates`.

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

from repro.analysis.metrics import compare_designs
from repro.analysis.runner import (
    Gate,
    MetricPolicy,
    ScenarioSpec,
    register_scenario,
)
from repro.api import DesignRequest, comparison_designers, get_designer, run_request
from repro.core.algorithm import DesignParameters
from repro.core.concentration import (
    chernoff_lower_tail,
    chernoff_upper_tail,
    empirical_tail_frequency,
    weight_violation_probability,
)
from repro.core.extensions import color_constrained_parameters
from repro.core.formulation import ExtensionOptions, build_sparse_formulation
from repro.core.gap import build_gap_network, check_gap_flow, gap_round, solve_gap
from repro.core.problem import OverlayDesignProblem
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
    compile_path_table,
    evaluate_design,
    failure_scenario_names,
    run_monte_carlo,
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


def run_design(
    problem: OverlayDesignProblem,
    parameters: DesignParameters,
) -> dict:
    """Run the ``spaa03`` designer on one instance and extract the standard metric row.

    Shared by the tiny, T1 and T5 scenarios.
    """
    start = time.perf_counter()
    result = run_request(DesignRequest(problem=problem, parameters=parameters))
    elapsed = time.perf_counter() - start
    audit, context = result.audit, result.report
    return {
        "streams": problem.num_streams,
        "reflectors": problem.num_reflectors,
        "demands": problem.num_demands,
        "lp_variables": context.formulation.num_variables,
        "lp_constraints": context.formulation.num_constraints,
        "lp_lower_bound": result.lower_bound,
        "total_cost": result.total_cost,
        "cost_ratio": result.cost_ratio,
        "multiplier": context.rounded.multiplier,
        "min_weight_fraction": audit.min_weight_fraction,
        "max_fanout_factor": audit.max_fanout_factor,
        "unserved_demands": audit.unserved_demands,
        "rounding_attempts": context.rounding_attempts,
        "elapsed_seconds": elapsed,
        "lp_nonzeros": context.formulation.stats.num_nonzeros,
        "formulate_seconds": result.stage_seconds.get("formulate", 0.0),
        "lp_seconds": result.stage_seconds.get("solve_lp", 0.0),
        "rounding_seconds": result.stage_seconds.get("rounding", 0.0),
        "gap_seconds": result.stage_seconds.get("gap", 0.0),
    }


# ---------------------------------------------------------------------------
# tiny -- fast full-pipeline scenario (CI smoke, determinism tests)
# ---------------------------------------------------------------------------


def tiny_task(task: dict) -> dict:
    problem = build_tiny_problem()
    parameters = DesignParameters(seed=task["seed"], repair_shortfall=True)
    row = run_design(problem, parameters)
    row["seed"] = task["seed"]
    return row


def tiny_tasks(master_seed: int, smoke: bool) -> list[dict]:
    count = 2 if smoke else 4
    return [{"seed": master_seed + k} for k in range(count)]


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
        gates=(
            Gate("unserved_demands", "==", 0, per_row=True),
            Gate("min_weight_fraction", ">=", 1.0 - 1e-9, per_row=True),
        ),
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
    row = run_design(
        problem,
        DesignParameters(rounding=RoundingParameters(c=task["c"], seed=task["seed"])),
    )
    return {
        "|S|,|R|,n": f"{streams},{reflectors},{sinks}",
        "demands": sinks,
        "seed": task["seed"],
        "cost_ratio": row["cost_ratio"],
        "paper_bound_2clogn": 2.0 * row["multiplier"],
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
        gates=(Gate("cost_ratio", "<=", "paper_bound_2clogn", per_row=True),),
        artifact="T1_cost_ratio",
        description="Cost of the rounded design relative to the LP lower bound. "
        "Lemma 4.1 bounds the rounding's cost by c log n times the LP optimum and "
        "the GAP stage adds at most a factor 2, so every ratio stays under 2 c log n.",
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


def t2_gate_values(rows: list[dict]) -> dict[str, float]:
    by_c = sorted(rows, key=lambda r: -r["c"])
    paper, smallest_c = by_c[0], by_c[-1]
    return {
        # At the paper's c the violating fraction stays within the union
        # bound, up to 0.05 of sampling slack ...
        "violating_over_union_bound": paper["fraction_of_draws_violating"]
        - (paper["paper_union_bound"] + 0.05),
        # ... and violations do not get rarer as c shrinks.
        "violating_over_smallest_c": paper["fraction_of_draws_violating"]
        - (smallest_c["fraction_of_draws_violating"] + 1e-9),
    }


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
        gates=(
            Gate("violating_over_union_bound", "<=", 0.0),
            Gate("violating_over_smallest_c", "<=", 0.0),
        ),
        gate_values=t2_gate_values,
        artifact="T2_weight_violation",
        description="Distribution of worst per-demand weight fraction over rounding "
        "draws. With the paper's constants (delta = 1/4, c = 64) every weight "
        "constraint keeps (1 - delta) of its requirement with probability >= 1 - 1/n "
        "(Lemma 4.3); the fraction of violating draws stays within the union bound.",
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
        gates=(
            Gate(
                "max_fanout_factor_after_rounding",
                "<=",
                "paper_bound_after_rounding",
                per_row=True,
            ),
            Gate("max_fanout_factor_final", "<=", "paper_bound_final", per_row=True),
        ),
        artifact="T3_fanout_violation",
        description="Worst fanout factor after rounding and after the GAP stage: at "
        "most 2 after rounding with c >= 24 (Lemma 4.6) and 4 after GAP (Section 5).",
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
    solution = run_request(DesignRequest(problem=problem, parameters=params)).solution
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
        gates=(
            Gate("min_weight_fraction", ">=", "paper_bound", per_row=True),
            Gate("fraction_within_4th_root_failure", ">=", 1.0 - 1e-9, per_row=True),
        ),
        artifact="T4_final_quality",
        description="End-to-end quality of the unrepaired paper algorithm (paper "
        "constants, random and Akamai-like instances): every demand gets at least a "
        "quarter of its weight, so its failure probability is at most the fourth root "
        "of its target.",
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
    row = run_design(problem, DesignParameters(seed=task["seed"], retry_rounding=False))
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


def t5_gate_values(rows: list[dict]) -> dict[str, float]:
    rows = sorted(rows, key=lambda r: r["size_product"])
    smallest, largest = rows[0], rows[-1]
    values = {
        "lp_variables_growth": largest["lp_variables"] - smallest["lp_variables"],
        "smallest_lp_variables_per_size": smallest["lp_variables"] / smallest["size_product"],
        "largest_lp_variables_per_size": largest["lp_variables"] / largest["size_product"],
    }
    # Stage times are tens of milliseconds and measured inside (possibly
    # core-sharing) worker processes, so the dominance gates allow a 2x noise
    # factor and are left out entirely in the sub-100ms pure-noise regime.
    if largest["total_seconds"] >= 0.1:
        values["lp_over_half_rounding"] = largest["lp_seconds"] - 0.5 * largest["rounding_seconds"]
        values["lp_over_half_gap"] = largest["lp_seconds"] - 0.5 * largest["gap_seconds"]
        values["twice_lp_over_build"] = 2.0 * largest["lp_seconds"] - largest["build_seconds"]
    return values


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
        gates=(
            Gate("lp_variables_growth", ">", 0),
            Gate("smallest_lp_variables_per_size", ">=", 0.05),
            Gate("smallest_lp_variables_per_size", "<=", 3.0),
            Gate("largest_lp_variables_per_size", ">=", 0.05),
            Gate("largest_lp_variables_per_size", "<=", 3.0),
            Gate("lp_over_half_rounding", ">=", 0.0),
            Gate("lp_over_half_gap", ">=", 0.0),
            Gate("twice_lp_over_build", ">=", 0.0),
        ),
        gate_values=t5_gate_values,
        artifact="T5_scaling",
        description="LP size and per-stage wall-clock across a size sweep. The "
        "running time is that of an LP with O(|S||R|n) variables and constraints: "
        "rounding and GAP are cheaper, and matrix assembly does not dominate the solve.",
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
    plain = run_request(DesignRequest(problem, base)).solution
    colored_result = run_request(
        DesignRequest(problem, color_constrained_parameters(base), strategy="spaa03-extended")
    )
    colored = colored_result.solution
    path_info = colored_result.report.path_rounding
    worst_plain = min(_survivor_fraction(problem, plain, isp) for isp in registry.names())
    worst_colored = min(
        _survivor_fraction(problem, colored, isp) for isp in registry.names()
    )
    return {
        "seed": seed,
        "demands": problem.num_demands,
        "plain_cost": plain.total_cost(),
        "colored_cost": colored.total_cost(),
        "cost_factor_vs_lp": colored.total_cost() / max(colored_result.lower_bound, 1e-9),
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


def t6_gate_values(rows: list[dict]) -> dict[str, float]:
    plain = float(np.mean([row["worst_outage_survivors_plain"] for row in rows]))
    colored = float(np.mean([row["worst_outage_survivors_colored"] for row in rows]))
    # Colored designs survive single-ISP outages no worse than plain ones.
    return {"colored_over_plain_survivors": colored - (plain - 0.05)}


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
        gates=(
            Gate(
                "entangled_violation_factor",
                "<=",
                "paper_constraint_factor_bound",
                per_row=True,
            ),
            Gate("fanout_violation_factor", "<=", "paper_constraint_factor_bound", per_row=True),
            Gate("cost_factor_vs_lp", "<=", "paper_cost_factor_bound", per_row=True),
            Gate("colored_over_plain_survivors", ">=", 0.0),
        ),
        gate_values=t6_gate_values,
        artifact="T6_color_constraints",
        description="Path-rounding violation factors and single-ISP outage survival: "
        "the color/arc-capacity constraints stay within factor 7 and the cost within "
        "factor 14, and colored designs survive outages at least as well as plain ones.",
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


def t7_gate_values(rows: list[dict]) -> dict[str, float]:
    values: dict[str, float] = {"rows": len(rows)}
    for side in ("lower", "upper"):
        # The worst row's excess over its bound plus a sampling slack of
        # three standard errors of a frequency (at least 0.01).
        values[f"{side}_tail_over_bound"] = max(
            row[f"empirical_{side}_tail"]
            - (row[f"bound_{side}_tail"] + max(0.01, 3.0 / math.sqrt(row["trials"])))
            for row in rows
        )
    return values


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
        gates=(
            Gate("rows", "==", 6),
            Gate("lower_tail_over_bound", "<=", 0.0),
            Gate("upper_tail_over_bound", "<=", 0.0),
        ),
        gate_values=t7_gate_values,
        artifact="T7_chernoff",
        description="Empirical tail frequencies for the summand kinds the rounding "
        "produces, against Pr[S <= (1-d)mu] <= exp(-d^2 mu/2) and "
        "Pr[S >= (1+d)mu] <= exp(-d^2 mu/3).",
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
        sim = run_monte_carlo(
            problem_,
            solution_,
            MonteCarloConfig(num_packets=task["packets"], trials=1, seed=task["sim_seed"]),
        )
        return sim.mean_loss

    rows = compare_designs(
        problem,
        designs,
        lower_bound=result.lower_bound,
        extra_metrics={"simulated_mean_loss": simulated_loss},
    )
    for row in rows:
        row["rounding_multiplier"] = result.report.rounded.multiplier
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


def c1_gate_values(rows: list[dict]) -> dict[str, float]:
    by_name = {row["design"]: row for row in rows}
    spaa, single, greedy = by_name["spaa03+repair"], by_name["single-tree"], by_name["greedy"]
    return {
        "spaa_cost_ratio_over_2clogn": spaa["cost_ratio"] - 2.0 * spaa["rounding_multiplier"],
        "spaa_cost_over_random": spaa["total_cost"] - by_name["random"]["total_cost"] * 1.05,
        "single_tree_mean_paths_per_demand": single["mean_paths_per_demand"],
        "single_tree_meeting_over_spaa": single["fraction_meeting_threshold"]
        - (spaa["fraction_meeting_threshold"] - 0.3),
        "spaa_loss_over_single_tree": spaa["simulated_mean_loss"]
        - (single["simulated_mean_loss"] + 1e-6),
        "greedy_fraction_meeting_threshold": greedy["fraction_meeting_threshold"],
        "greedy_cost_over_naive": greedy["total_cost"]
        - by_name["naive-quality-first"]["total_cost"],
    }


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
        gates=(
            Gate("spaa_fraction_meeting_threshold", ">=", 0.9),
            Gate("spaa_cost_ratio", "<=", 6.0),
            Gate("spaa_cost_ratio_over_2clogn", "<=", 0.0),
            Gate("spaa_cost_over_random", "<=", 0.0),
            Gate("single_tree_mean_paths_per_demand", "<=", 1.0 + 1e-9),
            Gate("single_tree_meeting_over_spaa", "<=", 0.0),
            Gate("spaa_loss_over_single_tree", "<=", 0.0),
            Gate("greedy_fraction_meeting_threshold", ">=", 0.9),
            Gate("greedy_cost_over_naive", "<=", 0.0),
        ),
        gate_values=c1_gate_values,
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
        description="Cost, analytic reliability and simulated loss of the LP-rounding "
        "design against greedy, naive quality-first, single-tree and random on the "
        "Akamai-like flash-crowd workload (the comparison the paper's Section 7 "
        "planned to run on production data).",
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
        result = get_designer("spaa03").design(
            DesignRequest(problem=problem, parameters=params)
        )
        solution = result.solution
        ratios.append(result.cost_ratio)
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


def c2_gate_values(rows: list[dict]) -> dict[str, float]:
    by_label = {row["variant"]: row for row in rows}
    c64, c2 = by_label["c=64 (paper constants)"], by_label["c=2 (cheap, weak guarantee)"]
    return {
        "rows": len(rows),
        "c64_cost_ratio_over_c2": c64["mean_cost_ratio"] - (c2["mean_cost_ratio"] - 1e-9),
        "c64_min_weight_over_c2": c64["min_weight_fraction"]
        - (c2["min_weight_fraction"] - 1e-9),
        "unserved_over_literal_box_rule": by_label["baseline (c=8)"]["mean_unserved_demands"]
        - (by_label["literal paper box rule"]["mean_unserved_demands"] + 1e-9),
    }


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
        gates=(
            Gate("rows", "==", 5),
            Gate("c64_cost_ratio_over_c2", ">=", 0.0),
            Gate("c64_min_weight_over_c2", ">=", 0.0),
            Gate("unserved_over_literal_box_rule", "<=", 0.0),
        ),
        gate_values=c2_gate_values,
        artifact="C2_ablation",
        description="Ablations on a fixed instance: the rounding multiplier c (cost vs "
        "constraint satisfaction), the constraint-(4) cutting plane, and the GAP "
        "stage's degenerate-box handling (a documented deviation from the literal "
        "paper rule).",
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


def r2_gate_values(rows: list[dict]) -> dict[str, float]:
    by_key = {(row["design"], row["scenario"]): row for row in rows}
    designs = sorted({row["design"] for row in rows})
    scenarios = sorted({row["scenario"] for row in rows})
    values = {
        "rows": len(rows),
        "cells": len(designs) * len(scenarios),
        "catalogue_cells_missing": sum(
            (design, name) not in by_key for design in designs for name in failure_scenario_names()
        ),
    }
    if values["catalogue_cells_missing"]:
        return values
    stressed, worst = [], []
    for design in designs:
        baseline = by_key[(design, "baseline")]["mean_loss"]
        losses = [by_key[(design, name)]["mean_loss"] for name in scenarios]
        # Stress scenarios only add loss; bursty-links keeps the same
        # average, so allow sampling slack.
        stressed.extend(loss - (baseline - 0.005) for loss in losses)
        # Some catalogue scenario stresses every design.
        worst.append(max(losses) - (baseline + 0.002))
    values["least_stressed_over_baseline"] = min(stressed)
    values["least_worst_over_baseline"] = min(worst)
    return values


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
        gates=(
            Gate("catalogue_cells_missing", "==", 0),
            Gate("rows", "==", "cells"),
            Gate("least_stressed_over_baseline", ">=", 0.0),
            Gate("least_worst_over_baseline", ">=", 0.0),
            Gate("spaa_baseline_mean_loss", "<=", 0.02),
        ),
        gate_values=r2_gate_values,
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
        "correlated-failure catalogue (Monte-Carlo engine): the catalogue stresses "
        "every design, and no stressed loss drops below the failure-free baseline.",
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
        gates=(
            Gate("feasible", "==", 1, per_row=True),
            Gate("min_candidate_reflectors", ">=", 2, per_row=True),
        ),
        artifact="F1_network_model",
        description="The tripartite sources -> reflectors -> sinks digraph at several "
        "deployment sizes: structural invariants (three levels, every demand "
        "reachable) and build throughput.",
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


def f2_gate_values(rows: list[dict]) -> dict[str, float]:
    return {
        "most_boxes_served_over_total": max(
            row["boxes_served"] - row["boxes_total"] for row in rows
        ),
        "fewest_boxes_served_over_90pct": min(
            row["boxes_served"] - 0.9 * row["boxes_total"] for row in rows
        ),
    }


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
        gates=(
            Gate("most_boxes_served_over_total", "<=", 0),
            Gate("fewest_boxes_served_over_90pct", ">=", 0.0),
        ),
        gate_values=f2_gate_values,
        artifact="F2_gap_network",
        description="The five-level Figure-2 flow network built from real rounded "
        "solutions: its invariants (box ordering, capacities, feasible flow), "
        "construction and min-cost-flow time, and the boxes it serves.",
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


def f3_gate_values(rows: list[dict]) -> dict[str, float]:
    measured = {row["quantity"]: row["measured"] for row in rows if "measured" in row}
    scale_rows = [row for row in rows if "integrality_gap" in row]
    return {
        "fractional_max_flow_error": abs(measured["fractional max flow"] - 3.5),
        "integral_max_flow_error": abs(measured["integral max flow"] - 3.0),
        "scale_rows_from_100_sinks": sum(row["sinks"] >= 100 for row in scale_rows),
        # A MILP that stopped early does not measure the true integrality gap.
        "scale_rows_not_optimal": sum(row["milp_status"] != "optimal" for row in scale_rows),
    }


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
        # Wall-clock-derived; deliberately NOT a comparable metric (it is
        # gated by a full-size gate, not by the baseline).
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
        gates=(
            Gate("sharded_vs_monolithic_cost_ratio", "<=", 1.15 + 1e-9, per_row=True),
            Gate("sharded_unserved", "==", 0, per_row=True),
            Gate("sharded_min_weight_fraction", ">=", 0.25 - 1e-9, per_row=True),
            Gate("sharded_max_fanout_factor", "<=", 4.0 + 1e-9, per_row=True),
            # At smoke sizes the monolithic pipeline is itself fast enough
            # that process start-up noise dominates the ratio.
            Gate("speedup_vs_monolithic", ">=", 4.0, per_row=True, full_only=True),
        ),
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
        gates=(
            Gate("fractional_max_flow_error", "<=", 1e-6),
            Gate("integral_max_flow_error", "<=", 1e-9),
            Gate("scale_rows_from_100_sinks", ">=", 1),
            Gate("scale_rows_not_optimal", "==", 0),
            Gate("integrality_gap", ">=", 1.0 - 1e-9, per_row=True),
        ),
        gate_values=f3_gate_values,
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
        # T8 speedup, it is gated by a full-size gate, not by the baseline).
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
        gates=(
            Gate("incremental_vs_scratch_cost_ratio", "<=", 1.05 + 1e-9, per_row=True),
            Gate("incremental_unserved", "==", 0, per_row=True),
            Gate("incremental_max_fanout_factor", "<=", 4.0 + 1e-9, per_row=True),
            # At smoke sizes fixed overhead (diff, partition, audit)
            # dominates both sides.
            Gate("speedup_vs_scratch", ">=", 10.0, per_row=True, full_only=True),
        ),
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
        "after 5% sink churn. Both timed sides run jobs=1, so the speedup measures "
        "work avoided, not worker count.",
    )
)


# ---------------------------------------------------------------------------
# S1 -- design-service latency: fresh vs repeat digests, session vs updates
# ---------------------------------------------------------------------------


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
    from repro.serve.service import _percentile
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

    # Churn leg: a 5-event stream through one DesignSession (standing plan
    # rebind, all in memory) against five independent
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
    fresh_latencies.sort()
    repeat_latencies.sort()
    return {
        "sinks": base_problem.num_sinks,
        "demands": base_problem.num_demands,
        "fresh_requests": len(fresh_latencies),
        "repeat_requests": len(repeat_latencies),
        "repeat_payload_identical": int(payload_mismatches == 0),
        "deduplicated": stats["deduplicated"],
        "cache_hits": stats["cache"]["hits"],
        "fresh_p50_seconds": _percentile(fresh_latencies, 50.0),
        "fresh_p99_seconds": _percentile(fresh_latencies, 99.0),
        "repeat_p50_seconds": _percentile(repeat_latencies, 50.0),
        "repeat_p99_seconds": _percentile(repeat_latencies, 99.0),
        "service_p50_seconds": stats["latency_p50_seconds"],
        "service_p99_seconds": stats["latency_p99_seconds"],
        # Wall-clock-derived; like the I1/T8 speedups these are gated at
        # full size only, never compared against a baseline.
        "repeat_speedup": (
            _percentile(fresh_latencies, 50.0)
            / max(_percentile(repeat_latencies, 50.0), 1e-9)
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
        gates=(
            # Repeat-digest payloads equal the fresh ones (modulo timings,
            # cache and request id) and the session equals the independent
            # update chain, bit for bit.
            Gate("repeat_payload_identical", "==", 1, per_row=True),
            Gate("session_matches_independent", "==", 1, per_row=True),
            Gate("session_unserved", "==", 0, per_row=True),
            Gate("deduplicated", ">=", 1, per_row=True),
            Gate("plan_reuse_events", ">=", 1, per_row=True),
            # At smoke sizes fixed overhead (serialization, audit) dominates
            # both sides.
            Gate("repeat_speedup", ">=", 10.0, per_row=True, full_only=True),
            Gate("session_speedup", ">", 1.0, per_row=True, full_only=True),
        ),
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

    One row per ladder rung, each measuring the Monte-Carlo fold alone: the
    path table is compiled (and the design produced) before ``tracemalloc``
    starts, so ``peak_rss_bytes`` is the audit's working set -- tile buffers,
    tile tasks, and the per-demand accumulators.  The rung results must be
    flat in the trial count: that is the memory contract of
    :func:`repro.simulation.run_monte_carlo`.
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

    rows = []
    for trials in task["trial_ladder"]:
        config = MonteCarloConfig(
            num_packets=task["packets"],
            trials=trials,
            window=task["window"],
            seed=task["eval_seed"],
            max_memory=task["max_memory"],
        )
        tracemalloc.start()
        start = time.perf_counter()
        report = run_monte_carlo(
            problem,
            solution,
            config,
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
        }
    ]


def r3_metrics(rows: list[dict]) -> dict[str, float]:
    last = rows[-1]
    peaks = [row["peak_rss_bytes"] for row in rows]
    return {
        "mean_loss": last["mean_loss"],
        "fraction_meeting_threshold": last["fraction_meeting_threshold"],
        "rss_flatness_ratio": max(peaks) / min(peaks),
    }


def r3_gate_values(rows: list[dict]) -> dict[str, float]:
    return {
        "rows": len(rows),
        "most_peak_rss_over_budget": max(
            (row["peak_rss_bytes"] - row["rss_budget"] for row in rows), default=0
        ),
        "fewest_demands_over_sinks": min(
            (row["demands"] - row["sinks"] for row in rows), default=0
        ),
    }


register_scenario(
    ScenarioSpec(
        scenario_id="r3",
        title="R3: streaming million-demand reliability audit (flat-RSS fold)",
        task_fn=r3_task,
        make_tasks=r3_tasks,
        policies={
            # Monte-Carlo results are a pure function of the seeds and the
            # effective tile grid, so the statistics are drift-gated exactly.
            "mean_loss": MetricPolicy("equal", rel_tol=1e-9, abs_tol=1e-12),
            "fraction_meeting_threshold": MetricPolicy(
                "equal", rel_tol=1e-9, abs_tol=1e-12
            ),
            # Allocator layout shifts move tracemalloc peaks a little.
            "rss_flatness_ratio": MetricPolicy("lower", abs_tol=0.25),
        },
        derive_metrics=r3_metrics,
        gates=(
            Gate("rows", ">=", 1),
            Gate("most_peak_rss_over_budget", "<=", 0),
            Gate("fewest_demands_over_sinks", ">=", 0),
            Gate("mean_loss", ">", 0.0, per_row=True),
            Gate("mean_loss", "<", 0.2, per_row=True),
            # The diurnal trace replay sees windowed loss.
            Gate("diurnal_peak_window_loss", ">", 0.0, per_row=True),
            # The fold's peak memory is flat in the trial count.
            Gate("rss_flatness_ratio", "<=", 1.5),
        ),
        gate_values=r3_gate_values,
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
            "audit_seconds",
            "diurnal_peak_window_loss",
            "diurnal_rebuffer_session_fraction",
            "metro_diurnal_peak_window_loss",
            "metro_diurnal_rebuffer_session_fraction",
        ],
        suites=("reliability", "scale"),
        description="Memory-bounded streaming audit of an internet-scale design: "
        "trial-ladder peak-RSS flatness under a working-set budget and diurnal "
        "trace replay (smoke: 50k sinks; full: 1M sinks x 1k trials).",
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


def a1_gate_values(rows: list[dict]) -> dict[str, float]:
    by_key = {(row["design"], row["scenario"]): row for row in rows}
    designs = {row["design"] for row in rows}
    scenarios = sorted({row["scenario"] for row in rows})
    values = {
        "designs_not_expected": len(designs ^ set(A1_DESIGNERS)),
        "designs": len(designs),
        "rows": len(rows),
        "cells": len(designs) * len(scenarios),
        "adversary_picks": sum(1 for row in rows if row["adversary_pick"]),
        "catalogue_cells_missing": sum(
            (design, name) not in by_key
            for design in A1_DESIGNERS
            for name in failure_scenario_names()
        ),
    }
    if values["catalogue_cells_missing"]:
        return values
    # The adversary finds something against every design: its worst scenario
    # costs at least 0.01 more loss than the failure-free one.
    values["least_worst_over_baseline"] = min(
        max(by_key[(design, name)]["mean_loss"] for name in scenarios if name != "baseline")
        - (by_key[(design, "baseline")]["mean_loss"] + 0.01)
        for design in A1_DESIGNERS
    )
    return values


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
        gates=(
            Gate("designs_not_expected", "==", 0),
            Gate("rows", "==", "cells"),
            Gate("adversary_picks", "==", "designs"),
            Gate("catalogue_cells_missing", "==", 0),
            # The paper-shape claim this bench exists for: under a worst-case
            # search over the whole catalogue (including attacks targeted at
            # each design's own reflectors), the ISP-diversity extension
            # strictly beats both baselines.
            Gate("extended_vs_greedy_margin", ">", 0.0),
            Gate("extended_vs_single_tree_margin", ">", 0.0),
            Gate("least_worst_over_baseline", ">=", 0.0),
            Gate("spaa03_extended_baseline_loss", "<=", 0.05),
            Gate("greedy_baseline_loss", "<=", 0.05),
            Gate("single_tree_baseline_loss", "<=", 0.05),
        ),
        gate_values=a1_gate_values,
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
        "on one AS/geo instance (real metro populations, multi-homed carriers); "
        "the ISP-diversity extension must strictly beat "
        "greedy and single-tree at their respective adversarial worst cases.",
    )
)
