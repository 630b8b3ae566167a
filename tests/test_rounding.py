"""Tests for the Section-3 randomized rounding (repro.core.rounding)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.formulation import build_sparse_formulation
from repro.core.rounding import (
    RoundingParameters,
    audit_rounding,
    effective_multiplier,
    round_solution,
    round_solution_with_retries,
)


@pytest.fixture
def fractional(tiny_problem):
    formulation = build_sparse_formulation(tiny_problem)
    return formulation.fractional_solution(formulation.solve()).support()


class TestMultiplier:
    def test_natural_log_used(self):
        assert effective_multiplier(8.0, 100) == pytest.approx(8.0 * math.log(100))

    def test_clamped_at_one(self):
        assert effective_multiplier(0.1, 2) == 1.0

    def test_tiny_instances_clamped(self):
        # n = 1 would give log 1 = 0; the implementation clamps n at 2.
        assert effective_multiplier(8.0, 1) == pytest.approx(8.0 * math.log(2))

    def test_invalid_demand_count(self):
        with pytest.raises(ValueError):
            effective_multiplier(8.0, 0)

    def test_parameters_paper_defaults(self):
        params = RoundingParameters.paper_defaults()
        assert params.c == pytest.approx(64.0)
        assert params.delta == pytest.approx(0.25)
        assert params.multiplier(10) == pytest.approx(64.0 * math.log(10))


class TestRoundingStructure:
    def test_values_are_binary_or_allowed_fractions(self, tiny_problem, fractional):
        params = RoundingParameters(c=8.0, seed=3)
        rounded = round_solution(tiny_problem, fractional, params)
        assert set(rounded.z.values()) <= {0, 1}
        assert set(rounded.y.values()) <= {0, 1}
        multiplier = rounded.multiplier
        for key, value in rounded.x.items():
            original = fractional.x[key]
            assert value == pytest.approx(original) or value == pytest.approx(1.0 / multiplier)

    def test_x_support_implies_y_and_z(self, tiny_problem, fractional):
        rounded = round_solution(tiny_problem, fractional, RoundingParameters(seed=5))
        for reflector, (sink, stream) in rounded.x:
            assert rounded.z.get(reflector) == 1
            assert rounded.y.get((stream, reflector)) == 1

    def test_scaled_values_capped_at_one(self, tiny_problem, fractional):
        rounded = round_solution(tiny_problem, fractional, RoundingParameters(c=64.0, seed=1))
        assert all(value <= 1.0 + 1e-12 for value in rounded.scaled_z.values())
        assert all(value <= 1.0 + 1e-12 for value in rounded.scaled_y.values())

    def test_large_c_keeps_fractional_x(self, tiny_problem, fractional):
        """With a huge multiplier all z_dot/y_dot saturate so x_bar = x_hat exactly."""
        rounded = round_solution(tiny_problem, fractional, RoundingParameters(c=10_000.0, seed=0))
        for key, value in fractional.x.items():
            if value > 1e-9:
                assert rounded.x[key] == pytest.approx(value)

    def test_deterministic_given_seed(self, tiny_problem, fractional):
        a = round_solution(tiny_problem, fractional, RoundingParameters(c=8.0, seed=42))
        b = round_solution(tiny_problem, fractional, RoundingParameters(c=8.0, seed=42))
        assert a.z == b.z and a.y == b.y and a.x == b.x

    def test_different_seeds_can_differ(self, tiny_problem):
        """With genuinely fractional inflated values the draws are random.

        A hand-built fractional solution avoids the (legitimate) case where the
        LP solution saturates every inflated variable and the rounding becomes
        deterministic.
        """
        from repro.core.lp_solution import FractionalSolution

        fractional = FractionalSolution(
            z={r: 0.5 for r in tiny_problem.reflectors},
            y={("s", r): 0.5 for r in tiny_problem.reflectors},
            x={
                (r, d.key): 0.45
                for d in tiny_problem.demands
                for r in tiny_problem.candidate_reflectors(d)
            },
            objective=1.0,
        )
        # c = 0.3 keeps the multiplier at its clamp (1.0), so z_dot = 0.5 and the
        # Bernoulli draws genuinely differ across seeds.
        draws = [
            round_solution(tiny_problem, fractional, RoundingParameters(c=0.3, seed=s))
            for s in range(8)
        ]
        assert len({tuple(sorted(d.z.items())) for d in draws}) > 1

    def test_explicit_rng_overrides_seed(self, tiny_problem, fractional):
        rng = np.random.default_rng(9)
        a = round_solution(tiny_problem, fractional, RoundingParameters(c=8.0, seed=1), rng)
        rng = np.random.default_rng(9)
        b = round_solution(tiny_problem, fractional, RoundingParameters(c=8.0, seed=2), rng)
        assert a.x == b.x


class TestRoundingGuarantees:
    def test_cost_at_most_multiplier_times_lp_in_expectation(self, small_random_problem):
        """Lemma 4.1: E[cost after rounding] <= c log n * LP optimum (checked by sampling)."""
        formulation = build_sparse_formulation(small_random_problem)
        fractional = formulation.fractional_solution(formulation.solve()).support()
        params = RoundingParameters(c=4.0)
        rng = np.random.default_rng(0)
        costs = [
            round_solution(small_random_problem, fractional, params, rng).cost(
                small_random_problem
            )
            for _ in range(40)
        ]
        multiplier = effective_multiplier(params.c, small_random_problem.num_demands)
        assert np.mean(costs) <= multiplier * fractional.objective * 1.1  # 10% sampling slack

    def test_paper_constants_satisfy_constraints_whp(self, small_random_problem):
        """With c = 64 (paper constants) a single draw almost always passes the audit."""
        formulation = build_sparse_formulation(small_random_problem)
        fractional = formulation.fractional_solution(formulation.solve()).support()
        params = RoundingParameters.paper_defaults()
        rng = np.random.default_rng(2)
        successes = 0
        for _ in range(10):
            rounded = round_solution(small_random_problem, fractional, params, rng)
            audit = audit_rounding(small_random_problem, rounded)
            if audit.acceptable(params.delta, fanout_slack=2.0):
                successes += 1
        assert successes >= 8

    def test_audit_weight_fraction_definition(self, tiny_problem, fractional):
        rounded = round_solution(tiny_problem, fractional, RoundingParameters(c=10_000.0, seed=0))
        audit = audit_rounding(tiny_problem, rounded)
        for demand in tiny_problem.demands:
            expected = rounded.delivered_weight(tiny_problem, demand) / tiny_problem.demand_weight(
                demand
            )
            assert audit.weight_fraction[demand.key] == pytest.approx(expected)
        # With x_bar = x_hat the LP constraint guarantees full weight.
        assert audit.min_weight_fraction >= 1.0 - 1e-6

    def test_audit_matches_per_demand_scan_bit_for_bit(self, small_random_problem):
        """The one-pass audit sums each demand in x order, like delivered_weight."""
        formulation = build_sparse_formulation(small_random_problem)
        fractional = formulation.fractional_solution(formulation.solve()).support()
        for seed in range(3):
            rounded = round_solution(
                small_random_problem, fractional, RoundingParameters(c=1.0, seed=seed)
            )
            audit = audit_rounding(small_random_problem, rounded)
            for demand in small_random_problem.demands:
                expected = rounded.delivered_weight(
                    small_random_problem, demand
                ) / small_random_problem.demand_weight(demand)
                assert audit.weight_fraction[demand.key] == expected

    def test_retries_return_acceptable_draw(self, small_random_problem):
        formulation = build_sparse_formulation(small_random_problem)
        fractional = formulation.fractional_solution(formulation.solve()).support()
        rounded, audit, attempts = round_solution_with_retries(
            small_random_problem,
            fractional,
            RoundingParameters(c=8.0, delta=0.5, seed=4),
            max_attempts=30,
        )
        assert attempts <= 30
        assert audit.min_weight_fraction >= 0.5 - 1e-9 or attempts == 30

    def test_retry_fallback_returns_best_seen(self, tiny_problem, fractional):
        """Even when nothing passes, the fallback must return a usable draw."""
        rounded, audit, attempts = round_solution_with_retries(
            tiny_problem,
            fractional,
            RoundingParameters(c=0.01, delta=0.01, seed=0),
            max_attempts=3,
        )
        assert attempts == 3
        assert isinstance(audit.min_weight_fraction, float)
        assert rounded.multiplier >= 1.0
