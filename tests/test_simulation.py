"""Tests for the packet-level simulation (repro.simulation).

Reconstruction and window bookkeeping are checked on the per-demand oracle
(``tests/sim_oracle.py``), whose semantics the batched engine must reproduce.
"""

from __future__ import annotations

import numpy as np
import pytest
from sim_oracle import (
    duplicates_discarded,
    loss_rate,
    post_reconstruction_loss,
    reconstruct,
    window_loss_rates,
)

from repro.core.solution import OverlaySolution
from repro.network.loss import GilbertElliottLossModel
from repro.simulation import FailureEvent, FailureSchedule, MonteCarloConfig, run_monte_carlo
from repro.simulation.montecarlo import link_profiles


@pytest.fixture
def tiny_solution(tiny_problem):
    return OverlaySolution.from_assignments(
        tiny_problem, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1", "r3"]}
    )


def _simulate(problem, solution, node_isp=None, **config):
    """One Monte-Carlo session; ``config`` holds :class:`MonteCarloConfig` fields."""
    return run_monte_carlo(
        problem, solution, MonteCarloConfig(trials=1, **config), node_isp=node_isp
    )


class TestPackets:
    def test_loss_rate(self):
        assert loss_rate(np.array([True, True, False, False])) == pytest.approx(0.5)
        assert loss_rate(np.empty(0, dtype=bool)) == 1.0

    def test_window_loss_rates(self):
        received = np.array([True] * 10 + [False] * 10)
        rates = window_loss_rates(received, window=10)
        assert rates.tolist() == [0.0, 1.0]
        with pytest.raises(ValueError):
            window_loss_rates(received, window=0)


class TestReconstruction:
    def test_any_copy_suffices(self):
        copy_a = np.array([True, False, False, True])
        copy_b = np.array([False, True, False, True])
        received = reconstruct([copy_a, copy_b])
        assert received.tolist() == [True, True, False, True]
        assert post_reconstruction_loss([copy_a, copy_b]) == pytest.approx(0.25)

    def test_2d_array_input(self):
        stacked = np.array([[True, False], [False, False]])
        assert reconstruct(stacked).tolist() == [True, False]

    def test_empty_copies(self):
        assert reconstruct([]).size == 0
        assert post_reconstruction_loss([]) == 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            reconstruct([np.array([True]), np.array([True, False])])

    def test_duplicates_discarded(self):
        copy_a = np.array([True, True, False])
        copy_b = np.array([True, False, False])
        assert duplicates_discarded([copy_a, copy_b]) == 1
        assert duplicates_discarded([]) == 0


class TestFailures:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FailureEvent("weird", "x", 0, 10)
        with pytest.raises(ValueError):
            FailureEvent("isp_outage", "x", 10, 5)

    def test_window_mask(self):
        event = FailureEvent("reflector_crash", "r1", 2, 5)
        mask = event.window_mask(8)
        assert mask.tolist() == [False, False, True, True, True, False, False, False]

    def test_link_outage_mask_matches_targets(self):
        schedule = FailureSchedule(
            [
                FailureEvent("reflector_crash", "r1", 0, 5),
                FailureEvent("isp_outage", "ispA", 5, 10),
            ]
        )
        node_isp = {"r2": "ispA", "d": "ispB"}
        links = [("r1", "d"), ("r2", "d"), ("r3", "d")]
        profiles = link_profiles(links, schedule.link_index(node_isp), 10)
        masks = {
            links[row]: np.unpackbits(hard, count=10, bitorder="little").astype(bool)
            for row, hard, _segments in profiles
        }
        assert all(segments == [] for _row, _hard, segments in profiles)
        assert masks[("r1", "d")][:5].all() and not masks[("r1", "d")][5:].any()
        assert masks[("r2", "d")][5:].all() and not masks[("r2", "d")][:5].any()
        assert ("r3", "d") not in masks

    def test_single_isp_outage_helper(self):
        schedule = FailureSchedule.single_isp_outage("ispA", 1000, fraction=0.25)
        assert len(schedule) == 1
        event = schedule.events[0]
        assert event.end - event.start == 250
        with pytest.raises(ValueError):
            FailureSchedule.single_isp_outage("ispA", 100, fraction=0.0)


class TestEngine:
    def test_simulated_loss_matches_analytic(self, tiny_problem, tiny_solution):
        """Measured post-reconstruction loss ~ exact failure probability."""
        report = _simulate(tiny_problem, tiny_solution, num_packets=40_000, seed=1)
        for demand in tiny_problem.demands:
            analytic = tiny_solution.failure_probability(demand)
            measured = report.result_for(demand.key).mean_loss
            assert measured == pytest.approx(analytic, abs=0.004)

    def test_unserved_demand_loses_everything(self, tiny_problem):
        solution = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1"]})
        report = _simulate(tiny_problem, solution, num_packets=500, seed=0)
        assert report.result_for(("d2", "s")).mean_loss == 1.0
        assert report.result_for(("d2", "s")).meets_threshold_fraction == 0.0

    def test_more_paths_lower_loss(self, tiny_problem):
        single = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r3"]})
        double = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r3", "r1"]})
        loss_single = _simulate(tiny_problem, single, num_packets=20_000, seed=3)
        loss_double = _simulate(tiny_problem, double, num_packets=20_000, seed=3)
        assert (
            loss_double.result_for(("d1", "s")).mean_loss
            < loss_single.result_for(("d1", "s")).mean_loss
        )

    def test_reflector_crash_increases_window_loss(self, tiny_problem):
        solution = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1"]})
        schedule = FailureSchedule([FailureEvent("reflector_crash", "r1", 0, 2500)])
        report = _simulate(
            tiny_problem, solution, num_packets=5000, window=500, failures=schedule, seed=0
        )
        result = report.result_for(("d1", "s"))
        assert result.mean_loss > 0.45
        assert result.mean_worst_window == pytest.approx(1.0)

    def test_isp_outage_only_affects_that_isp(self, tiny_problem):
        node_isp = {"r1": "ispA", "r2": "ispB", "r3": "ispB"}
        solution = OverlaySolution.from_assignments(
            tiny_problem, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1"]}
        )
        schedule = FailureSchedule([FailureEvent("isp_outage", "ispA", 0, 10_000)])
        report = _simulate(
            tiny_problem, solution, node_isp, num_packets=10_000, failures=schedule, seed=0
        )
        # d1 still has r2 (ispB) -> low loss; d2 only had r1 (ispA) -> total loss.
        assert report.result_for(("d1", "s")).mean_loss < 0.2
        assert report.result_for(("d2", "s")).mean_loss == pytest.approx(1.0)

    def test_bursty_model_same_average(self, tiny_problem, tiny_solution):
        report = _simulate(
            tiny_problem,
            tiny_solution,
            num_packets=40_000,
            loss_model=GilbertElliottLossModel(),
            seed=5,
        )
        for demand in tiny_problem.demands:
            analytic = tiny_solution.failure_probability(demand)
            measured = report.result_for(demand.key).mean_loss
            # Bursty loss keeps roughly the same average (correlations shift it a bit).
            assert measured == pytest.approx(analytic, abs=0.02)
