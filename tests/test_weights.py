"""Tests for the probability <-> weight transforms (repro.core.weights)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import weights as w


class TestPathFailureProbability:
    def test_serial_rule_matches_paper_formula(self):
        assert w.path_failure_probability(0.1, 0.2) == pytest.approx(0.1 + 0.2 - 0.02)

    def test_zero_loss_links_give_zero(self):
        assert w.path_failure_probability(0.0, 0.0) == 0.0

    def test_certain_loss_dominates(self):
        assert w.path_failure_probability(1.0, 0.3) == pytest.approx(1.0)

    def test_symmetric_in_arguments(self):
        assert w.path_failure_probability(0.07, 0.4) == pytest.approx(
            w.path_failure_probability(0.4, 0.07)
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            w.path_failure_probability(-0.1, 0.5)
        with pytest.raises(ValueError):
            w.path_failure_probability(0.5, 1.5)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_equals_complement_of_joint_survival(self, p1, p2):
        combined = w.path_failure_probability(p1, p2)
        assert combined == pytest.approx(1.0 - (1.0 - p1) * (1.0 - p2), abs=1e-12)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_at_least_each_individual_loss(self, p1, p2):
        combined = w.path_failure_probability(p1, p2)
        assert combined >= max(p1, p2) - 1e-12


class TestCombinedFailureProbability:
    def test_parallel_rule_is_product(self):
        assert w.combined_failure_probability([0.1, 0.2, 0.5]) == pytest.approx(0.01)

    def test_empty_means_certain_failure(self):
        assert w.combined_failure_probability([]) == 1.0

    def test_single_path_is_identity(self):
        assert w.combined_failure_probability([0.37]) == pytest.approx(0.37)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_adding_paths_never_hurts(self, failures):
        with_extra = w.combined_failure_probability(failures + [0.5])
        without = w.combined_failure_probability(failures)
        assert with_extra <= without + 1e-12


class TestWeightTransforms:
    def test_failure_to_weight_basic(self):
        assert w.failure_to_weight(math.exp(-3)) == pytest.approx(3.0)

    def test_failure_to_weight_inverts_exp(self):
        for q in (0.9, 0.5, 0.01, 1e-6):
            assert math.exp(-w.failure_to_weight(q)) == pytest.approx(q, rel=1e-9)

    def test_zero_failure_is_capped(self):
        assert w.failure_to_weight(0.0) == w.MAX_WEIGHT
        assert w.failure_to_weight(0.0, cap=5.0) == 5.0

    def test_threshold_to_weight(self):
        assert w.threshold_to_weight(0.0) == 0.0
        assert w.threshold_to_weight(1.0 - math.exp(-2)) == pytest.approx(2.0)

    def test_threshold_one_is_capped(self):
        assert w.threshold_to_weight(1.0) == w.MAX_WEIGHT

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            w.threshold_to_weight(1.5)
        with pytest.raises(ValueError):
            w.threshold_to_weight(-0.1)

    def test_success_from_weight_inverse_of_threshold(self):
        for phi in (0.5, 0.9, 0.999):
            assert w.success_from_weight(w.threshold_to_weight(phi)) == pytest.approx(phi)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            w.success_from_weight(-0.5)

    @given(st.floats(1e-12, 1.0))
    def test_weight_nonnegative_and_monotone(self, q):
        weight = w.failure_to_weight(q)
        assert weight >= 0.0
        # Smaller failure probability gives larger (or equal capped) weight.
        assert w.failure_to_weight(q / 2) >= weight - 1e-12

    @settings(max_examples=200)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 0.9999))
    def test_edge_weight_capped_at_demand(self, p1, p2, phi):
        demand_weight = w.threshold_to_weight(phi)
        value = w.edge_weight(p1, p2, demand_weight=demand_weight)
        assert 0.0 <= value <= demand_weight + 1e-12


class TestWeightSemantics:
    def test_weight_sum_iff_success_product(self):
        """Sum of weights >= W is equivalent to product of failures <= 1 - Phi."""
        failures = [0.1, 0.05, 0.2]
        total_weight = sum(w.failure_to_weight(q) for q in failures)
        combined = w.combined_failure_probability(failures)
        assert math.exp(-total_weight) == pytest.approx(combined, rel=1e-9)

    def test_meeting_weight_requirement_meets_probability_requirement(self):
        phi = 0.995
        required = w.threshold_to_weight(phi)
        failures = [0.06, 0.06]  # two mediocre paths
        total_weight = sum(w.failure_to_weight(q) for q in failures)
        success = 1.0 - w.combined_failure_probability(failures)
        assert (total_weight >= required) == (success >= phi)
