"""Property-based tests (hypothesis) for the simulation + rounding invariants.

The four core invariants of the reliability stack, checked over randomly
generated inputs:

1. reconstruction never loses more than the best single copy;
2. delivered quality is monotone in link reliability (common random numbers);
3. the worst windowed loss bounds the session mean from above;
4. LP randomized rounding never violates the capacity/fanout guarantees on
   random tiny instances (Lemma 4.6's factor-2 bound).

Reconstruction and window invariants are checked on the per-demand oracle
(``tests/sim_oracle.py``); the monotonicity properties drive
:func:`repro.simulation.run_monte_carlo` with its link-keyed loss model.

Plus distribution/packing invariants of the batched samplers that the
Monte-Carlo engine's correctness rests on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sim_oracle import (
    LinkKeyedLossModel,
    loss_rate,
    post_reconstruction_loss,
    reconstruct,
    window_loss_rates,
    windowed_loss_matrix,
)

from repro.core.formulation import build_sparse_formulation
from repro.core.problem import OverlayDesignProblem
from repro.core.rounding import RoundingParameters, audit_rounding, round_solution
from repro.core.solution import OverlaySolution
from repro.network.loss import BernoulliLossModel, sample_bernoulli_positions
from repro.simulation import MonteCarloConfig, run_monte_carlo
from repro.workloads import RandomInstanceConfig, random_problem

_SETTINGS = settings(max_examples=25)


def _session_loss(problem: OverlayDesignProblem, reflectors: list[str], seed: int) -> float:
    """Loss of demand ``d`` served by ``reflectors`` under link-keyed draws."""
    solution = OverlaySolution.from_assignments(problem, {("d", "s"): reflectors})
    config = MonteCarloConfig(
        num_packets=400, trials=1, window=80, loss_model=LinkKeyedLossModel(salt=seed)
    )
    report = run_monte_carlo(problem, solution, config)
    return float(report.mean_loss_per_demand[report.demand_index(("d", "s"))])


def _two_path_problem(loss_a: float, loss_b: float) -> OverlayDesignProblem:
    problem = OverlayDesignProblem()
    problem.add_stream("s")
    for name, loss in (("ra", loss_a), ("rb", loss_b)):
        problem.add_reflector(name, cost=1.0, fanout=4)
        problem.add_stream_edge("s", name, loss_probability=0.01, cost=1.0)
    problem.add_sink("d")
    problem.add_delivery_edge("ra", "d", loss_probability=loss_a, cost=1.0)
    problem.add_delivery_edge("rb", "d", loss_probability=loss_b, cost=1.0)
    problem.add_demand("d", "s", success_threshold=0.5)
    return problem


class TestReconstructionInvariants:
    @_SETTINGS
    @given(
        st.integers(1, 5),
        st.integers(1, 300),
        st.floats(0.0, 1.0),
        st.integers(0, 10_000),
    )
    def test_loss_never_exceeds_best_copy(self, paths, packets, rate, seed):
        """Reconstruction loss <= min per-copy loss (any copy can fill a hole)."""
        rng = np.random.default_rng(seed)
        copies = [~(rng.random(packets) < rate) for _ in range(paths)]
        combined = post_reconstruction_loss(copies)
        per_copy = [loss_rate(received) for received in copies]
        assert combined <= min(per_copy) + 1e-12
        assert 0.0 <= combined <= 1.0

    @_SETTINGS
    @given(st.integers(1, 4), st.integers(1, 200), st.integers(0, 10_000))
    def test_reconstructed_mask_is_union(self, paths, packets, seed):
        rng = np.random.default_rng(seed)
        copies = [rng.random(packets) < 0.4 for _ in range(paths)]
        received = reconstruct([~lost for lost in copies])
        for lost in copies:
            assert (received >= ~lost).all()


class TestMonotonicityInvariants:
    @_SETTINGS
    @given(
        st.floats(0.0, 0.9),
        st.floats(0.0, 0.9),
        st.floats(0.001, 0.1),
        st.integers(0, 10_000),
    )
    def test_quality_monotone_in_link_reliability(self, loss_a, loss_b, delta, seed):
        """Lowering a link's loss never lowers delivered quality (CRN).

        Both runs threshold the same link-keyed uniforms, so the better
        link's loss set is a subset of the worse link's and the measured
        loss is deterministically ordered -- no sampling slack.
        """
        better = _two_path_problem(loss_a, loss_b)
        worse = _two_path_problem(min(loss_a + delta, 1.0), loss_b)
        assert _session_loss(better, ["ra", "rb"], seed) <= (
            _session_loss(worse, ["ra", "rb"], seed) + 1e-12
        )

    @_SETTINGS
    @given(st.integers(0, 10_000))
    def test_extra_path_never_hurts(self, seed):
        """ra's link-keyed draws are the same in both designs, so adding rb
        can only fill holes."""
        problem = _two_path_problem(0.3, 0.4)
        assert _session_loss(problem, ["ra", "rb"], seed) <= (
            _session_loss(problem, ["ra"], seed) + 1e-12
        )


class TestWindowInvariants:
    @_SETTINGS
    @given(st.integers(1, 400), st.integers(1, 100), st.integers(0, 10_000))
    def test_worst_window_bounds_session_mean(self, packets, window, seed):
        """max windowed loss >= session loss (the mean of a set <= its max)."""
        rng = np.random.default_rng(seed)
        received = rng.random(packets) < rng.random()
        rates = window_loss_rates(received, window)
        assert rates.max() >= loss_rate(received) - 1e-12
        assert rates.min() <= loss_rate(received) + 1e-12

    @_SETTINGS
    @given(st.integers(1, 300), st.integers(1, 64), st.integers(0, 10_000))
    def test_windowed_matrix_matches_scalar_helper(self, packets, window, seed):
        rng = np.random.default_rng(seed)
        lost = rng.random((3, packets)) < 0.3
        matrix = windowed_loss_matrix(lost, window)
        for row in range(3):
            assert np.allclose(matrix[row], window_loss_rates(~lost[row], window))


class TestRoundingInvariants:
    @settings(max_examples=10)
    @given(st.integers(0, 10_000))
    def test_rounding_never_violates_fanout_bound(self, seed):
        """Lemma 4.6: rounded designs stay within twice the fanout bound."""
        problem = random_problem(
            RandomInstanceConfig(num_streams=1, num_reflectors=5, num_sinks=6),
            rng=seed % 997,
        )
        formulation = build_sparse_formulation(problem)
        fractional = formulation.fractional_solution(formulation.solve()).support()
        rounded = round_solution(
            problem, fractional, RoundingParameters(c=64.0, seed=seed)
        )
        audit = audit_rounding(problem, rounded)
        assert audit.max_fanout_factor <= 2.0 + 1e-9


class TestSamplerInvariants:
    @_SETTINGS
    @given(
        st.floats(1e-4, 0.99),
        st.integers(1, 40),
        st.integers(1, 600),
        st.integers(0, 10_000),
    )
    def test_positions_valid_and_increasing_per_trial(self, p, trials, length, seed):
        rng = np.random.default_rng(seed)
        trial_idx, positions = sample_bernoulli_positions(p, trials, length, rng)
        assert ((0 <= positions) & (positions < length)).all()
        assert ((0 <= trial_idx) & (trial_idx < trials)).all()
        order = np.lexsort((positions, trial_idx))
        sorted_positions = positions[order]
        same_trial = np.diff(trial_idx[order]) == 0
        assert (np.diff(sorted_positions)[same_trial] > 0).all()

    @_SETTINGS
    @given(st.floats(1e-3, 0.99), st.integers(1, 613), st.integers(0, 10_000))
    def test_packed_matrix_has_no_stray_bits(self, p, length, seed):
        """Pad bits beyond num_packets stay zero for every probability."""
        model = BernoulliLossModel()
        packed = model.sample_packed_loss_matrix(
            np.array([p]), 8, length, np.random.default_rng(seed)
        )
        unpacked = np.unpackbits(packed, axis=-1, bitorder="little")
        assert not unpacked[..., length:].any()
        assert unpacked.sum() == int(np.bitwise_count(packed).sum())

    @settings(max_examples=15)
    @given(st.floats(0.005, 0.4), st.integers(0, 10_000))
    def test_packed_rate_matches_probability(self, p, seed):
        model = BernoulliLossModel()
        trials, length = 200, 500
        packed = model.sample_packed_loss_matrix(
            np.array([p]), trials, length, np.random.default_rng(seed)
        )
        rate = float(np.bitwise_count(packed).sum()) / (trials * length)
        tolerance = 6.0 * np.sqrt(p * (1 - p) / (trials * length)) + 1e-9
        assert rate == pytest.approx(p, abs=tolerance)
