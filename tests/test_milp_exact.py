"""Tests for the exact MILP designer (repro.baselines.milp).

The load-bearing claim: ``milp-exact`` solves the *same* Section-2 IP the
brute-force search of ``tests/exact_oracle.py`` enumerates, so on every
instance small enough for both, their optimal costs must agree to 1e-9 --
and the cost must sit between the LP lower bound and every heuristic's cost.
"""

from __future__ import annotations

import json

import pytest
from exact_oracle import SearchSpaceTooLarge, exact_design
from test_golden_designs import WORKLOADS, _digest, golden_path

from repro.analysis.audit import audit_solution
from repro.api import DesignRequest, comparison_designers, get_designer
from repro.api.types import audit_to_dict
from repro.baselines.milp import _reflector_equivalence_classes, milp_exact_design
from repro.core.algorithm import DesignParameters, fractional_lower_bound
from repro.core.problem import OverlayDesignProblem
from repro.workloads import RandomInstanceConfig, random_problem


def tiny_instance(
    seed: int,
    streams: int = 1,
    reflectors: int = 4,
    sinks: int = 3,
    fanout_range: tuple[int, int] = (4, 12),
) -> OverlayDesignProblem:
    return random_problem(
        RandomInstanceConfig(
            num_streams=streams,
            num_reflectors=reflectors,
            num_sinks=sinks,
            demands_per_sink=1,
            min_candidates_per_demand=3,
            fanout_range=fanout_range,
        ),
        rng=seed,
    )


def brute_force(problem: OverlayDesignProblem):
    """The oracle with no subset-size cap: every reflector subset is searched."""
    return exact_design(problem, max_subset_size=problem.num_reflectors)


#: The differential corpus, as (seed, streams, reflectors, sinks, fanouts):
#: 40 one-stream instances with slack fanouts, then 20 one-stream and 20
#: two-stream instances whose fanouts of 1-3 bind (some are infeasible).
DIFFERENTIAL_CORPUS = (
    [(seed, 1, 4, 3, (4, 12)) for seed in range(40)]
    + [(seed, 1, 4, 3, (1, 3)) for seed in range(20)]
    + [(seed, 2, 5, 4, (1, 3)) for seed in range(20)]
)


def twin_reflector_problem() -> OverlayDesignProblem:
    """Three bit-identical reflectors (one orbitope class) plus a decoy."""
    problem = OverlayDesignProblem()
    problem.add_stream("s")
    for name in ("twin-a", "twin-b", "twin-c"):
        problem.add_reflector(name, cost=4.0, fanout=2)
        problem.add_stream_edge("s", name, 0.02, 0.5)
    problem.add_reflector("decoy", cost=9.0, fanout=2)
    problem.add_stream_edge("s", "decoy", 0.02, 0.5)
    for sink in ("d1", "d2"):
        problem.add_sink(sink)
        for name in ("twin-a", "twin-b", "twin-c", "decoy"):
            problem.add_delivery_edge(name, sink, 0.02, 0.5)
        problem.add_demand(sink, "s", success_threshold=0.9)
    return problem


class TestMatchesBruteForce:
    def test_tiny_problem_cost_matches_exact(self, tiny_problem):
        brute = brute_force(tiny_problem)
        milp = milp_exact_design(tiny_problem)
        assert milp.status == "optimal"
        assert milp.optimal_cost == pytest.approx(brute.optimal_cost, abs=1e-9)

    @pytest.mark.parametrize(
        "seed,streams,reflectors,sinks,fanouts",
        DIFFERENTIAL_CORPUS,
        ids=[
            f"{s}x{r}x{k}-fanout{lo}to{hi}-seed{seed}"
            for seed, s, r, k, (lo, hi) in DIFFERENTIAL_CORPUS
        ],
    )
    def test_corpus_cost_matches_exact(self, seed, streams, reflectors, sinks, fanouts):
        problem = tiny_instance(seed, streams, reflectors, sinks, fanouts)
        try:
            brute = brute_force(problem)
        except ValueError as error:
            assert not isinstance(error, SearchSpaceTooLarge)
            # No design meets every demand within the fanouts: the IP is infeasible too.
            with pytest.raises(ValueError, match="not solved"):
                milp_exact_design(problem)
            return
        milp = milp_exact_design(problem)
        assert milp.status == "optimal"
        assert milp.optimal_cost == pytest.approx(brute.optimal_cost, abs=1e-9)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_oracle_reproduces_the_milp_golden_entry(self, workload):
        """The committed ``milp-exact`` goldens are the brute-force optimum."""
        problem = WORKLOADS[workload]()
        golden = json.loads(golden_path(workload).read_text())
        expected = golden["strategies"]["milp-exact"]
        brute = brute_force(problem)
        audit = audit_solution(problem, brute.solution)
        assert brute.optimal_cost == pytest.approx(expected["total_cost"], abs=1e-9)
        assert _digest(audit_to_dict(audit)) == expected["audit_digest"]

    def test_solution_is_feasible(self, tiny_problem):
        milp = milp_exact_design(tiny_problem)
        for demand in tiny_problem.demands:
            assert milp.solution.weight_satisfaction(demand) >= 1.0 - 1e-6
        assert milp.solution.max_fanout_factor() <= 1.0 + 1e-9


class TestOrderingAgainstBoundsAndHeuristics:
    @pytest.mark.parametrize("seed", range(3))
    def test_lp_below_milp_below_every_heuristic(self, seed):
        problem = tiny_instance(seed)
        lp_bound = fractional_lower_bound(problem)
        milp = milp_exact_design(problem)
        assert lp_bound <= milp.optimal_cost + 1e-6
        for designer in comparison_designers():
            result = designer.design(
                DesignRequest(
                    problem=problem,
                    parameters=DesignParameters(seed=0),
                    strategy=designer.name,
                )
            )
            solution = result.solution
            feasible = all(
                solution.weight_satisfaction(d) >= 1.0 - 1e-9
                for d in problem.demands
            ) and solution.max_fanout_factor() <= 1.0 + 1e-9
            if feasible:
                assert milp.optimal_cost <= solution.total_cost() + 1e-6, (
                    f"{designer.name} beat the proven integer optimum"
                )


class TestSymmetryBreaking:
    def test_equivalence_classes_detected(self):
        classes = _reflector_equivalence_classes(twin_reflector_problem())
        assert classes == [["twin-a", "twin-b", "twin-c"]]

    def test_distinct_reflectors_are_not_grouped(self, tiny_problem):
        # build_tiny_problem's reflectors differ in cost/edges: no classes.
        assert _reflector_equivalence_classes(tiny_problem) == []

    def test_symmetry_rows_preserve_the_optimum(self):
        problem = twin_reflector_problem()
        plain = milp_exact_design(problem, symmetry_breaking=False)
        broken = milp_exact_design(problem, symmetry_breaking=True)
        assert plain.symmetry_rows == 0
        assert broken.symmetry_rows == 2  # |class| - 1 ordering rows
        assert broken.symmetry_classes == 1
        assert broken.optimal_cost == pytest.approx(plain.optimal_cost, abs=1e-9)
        assert broken.status == "optimal"

    def test_orbitope_rows_prefer_earliest_registered_twins(self):
        milp = milp_exact_design(twin_reflector_problem())
        built = milp.solution.built_reflectors
        # The ordering rows force z[twin-a] >= z[twin-b] >= z[twin-c]: any
        # built twin prefix must start at twin-a.
        if built & {"twin-b", "twin-c"}:
            assert "twin-a" in built


class TestOptionsAndDiagnostics:
    def test_limits_accepted_and_reported(self, tiny_problem):
        milp = milp_exact_design(tiny_problem, time_limit=30.0, mip_gap=1e-6)
        assert milp.status in ("optimal", "feasible")
        assert milp.mip_gap is not None
        assert milp.node_count is not None
        assert milp.mip_dual_bound == pytest.approx(milp.optimal_cost, rel=1e-4)


class TestDesignerRegistration:
    def test_registered_strategy_matches_direct_call(self, tiny_problem):
        direct = milp_exact_design(tiny_problem)
        result = get_designer("milp-exact").design(
            DesignRequest(
                problem=tiny_problem,
                parameters=DesignParameters(),
                strategy="milp-exact",
            )
        )
        assert result.total_cost == pytest.approx(direct.optimal_cost, abs=1e-9)
        assert result.metadata["milp_status"] == "optimal"
        assert result.lower_bound == pytest.approx(direct.mip_dual_bound)
        assert result.audit is not None
        assert result.audit.min_weight_fraction >= 1.0 - 1e-6
        assert result.audit.max_fanout_factor <= 1.0 + 1e-9
