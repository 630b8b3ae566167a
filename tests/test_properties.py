"""Cross-module property-based tests (hypothesis).

These complement the per-module property tests with invariants that tie the
pipeline together: LP relaxation vs feasible designs, rounding support
containment, box-construction mass accounting, solution cost monotonicity and
serialization round-trips -- each checked over randomly generated instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sim_oracle import post_reconstruction_loss

from repro.baselines import greedy_design
from repro.core.formulation import build_sparse_formulation
from repro.core.gap import build_boxes_for_demand
from repro.core.problem import Demand
from repro.core.rounding import RoundingParameters, round_solution
from repro.core.serialization import problem_from_dict, problem_to_dict
from repro.core.solution import OverlaySolution
from repro.workloads import RandomInstanceConfig, random_problem

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _instance(seed: int):
    return random_problem(
        RandomInstanceConfig(num_streams=1, num_reflectors=5, num_sinks=5), rng=seed
    )


class TestPipelineInvariants:
    @_SETTINGS
    @given(st.integers(0, 10_000))
    def test_lp_bound_below_feasible_greedy_cost(self, seed):
        problem = _instance(seed)
        formulation = build_sparse_formulation(problem)
        lp = formulation.solve()
        assert lp.is_optimal
        greedy = greedy_design(problem)
        if all(greedy.weight_satisfaction(d) >= 1.0 - 1e-9 for d in problem.demands):
            assert lp.objective <= greedy.total_cost() + 1e-6

    @_SETTINGS
    @given(st.integers(0, 10_000))
    def test_fractional_solution_respects_lp_constraints(self, seed):
        problem = _instance(seed)
        formulation = build_sparse_formulation(problem)
        lp = formulation.solve()
        compiled = formulation.compiled
        assert np.all(compiled.A_ub @ lp.values <= compiled.b_ub + 1e-6)
        bounds = compiled.bounds
        assert np.all((lp.values >= bounds[:, 0] - 1e-6) & (lp.values <= bounds[:, 1] + 1e-6))

    @_SETTINGS
    @given(st.integers(0, 10_000), st.floats(1.0, 64.0))
    def test_rounding_support_contained_in_fractional_support(self, seed, c):
        problem = _instance(seed)
        formulation = build_sparse_formulation(problem)
        fractional = formulation.fractional_solution(formulation.solve()).support()
        rounded = round_solution(
            problem, fractional, RoundingParameters(c=c, seed=seed)
        )
        assert set(rounded.x) <= set(fractional.x)
        multiplier = rounded.multiplier
        for key, value in rounded.x.items():
            assert value == pytest.approx(fractional.x[key]) or value == pytest.approx(
                1.0 / multiplier
            )

    @_SETTINGS
    @given(st.integers(0, 10_000))
    def test_serialization_roundtrip_preserves_weights(self, seed):
        problem = _instance(seed)
        restored = problem_from_dict(problem_to_dict(problem))
        for demand in problem.demands:
            for reflector in problem.candidate_reflectors(demand):
                assert restored.edge_weight(demand, reflector) == pytest.approx(
                    problem.edge_weight(demand, reflector)
                )
            assert restored.demand_weight(demand) == pytest.approx(
                problem.demand_weight(demand)
            )


class TestBoxConstructionProperties:
    DEMAND = Demand("d", "s", 0.99)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.1, 6.0), st.floats(0.01, 1.0)),
            min_size=1,
            max_size=8,
        )
    )
    def test_box_count_and_interval_bounds(self, raw_entries):
        entries = [
            (f"r{i}", weight, mass) for i, (weight, mass) in enumerate(raw_entries)
        ]
        total_mass = sum(mass for _, _, mass in entries)
        boxes = build_boxes_for_demand(self.DEMAND, entries)
        # Never more boxes than the paper's s_j = floor(2 * mass), and at least
        # one whenever there is positive mass (degenerate-case handling).
        assert len(boxes) <= max(int(2 * total_mass + 1e-9), 1)
        assert len(boxes) >= 1
        weights = [w for _, w, _ in entries]
        for box in boxes:
            assert min(weights) - 1e-9 <= box.lower <= box.upper <= max(weights) + 1e-9
        # Boxes are ordered: the upper bound never increases with the index.
        for earlier, later in zip(boxes, boxes[1:]):
            assert earlier.upper >= later.upper - 1e-9


class TestSolutionMonotonicity:
    @_SETTINGS
    @given(st.integers(0, 10_000))
    def test_adding_assignments_never_hurts_reliability(self, seed):
        problem = _instance(seed)
        rng = np.random.default_rng(seed)
        demand = problem.demands[int(rng.integers(problem.num_demands))]
        candidates = problem.candidate_reflectors(demand)
        if len(candidates) < 2:
            return
        small = OverlaySolution.from_assignments(problem, {demand.key: candidates[:1]})
        large = OverlaySolution.from_assignments(problem, {demand.key: candidates[:2]})
        assert large.success_probability(demand) >= small.success_probability(demand) - 1e-12
        assert large.delivered_weight(demand) >= small.delivered_weight(demand) - 1e-12
        assert large.total_cost() >= small.total_cost() - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 4), st.integers(0, 10_000))
    def test_reconstruction_loss_decreases_with_more_copies(
        self, num_packets, num_paths, seed
    ):
        rng = np.random.default_rng(seed)
        copies = [rng.random(num_packets) < 0.7 for _ in range(num_paths)]
        loss_all = post_reconstruction_loss(copies)
        loss_fewer = post_reconstruction_loss(copies[:-1]) if num_paths > 1 else 1.0
        assert loss_all <= loss_fewer + 1e-12
        assert 0.0 <= loss_all <= 1.0
