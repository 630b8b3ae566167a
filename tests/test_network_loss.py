"""Tests for the link-loss models (repro.network.loss)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.loss import (
    BernoulliLossModel,
    GilbertElliottLossModel,
    IspOutageLossModel,
)


class TestBernoulli:
    def test_rate_matches_probability(self, rng):
        model = BernoulliLossModel()
        losses = model.sample_losses(0.2, 50_000, rng)
        assert losses.dtype == bool
        assert losses.mean() == pytest.approx(0.2, abs=0.01)

    def test_extremes(self, rng):
        model = BernoulliLossModel()
        assert not model.sample_losses(0.0, 1000, rng).any()
        assert model.sample_losses(1.0, 1000, rng).all()

    def test_zero_packets(self, rng):
        assert BernoulliLossModel().sample_losses(0.5, 0, rng).size == 0

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            BernoulliLossModel().sample_losses(1.5, 10, rng)
        with pytest.raises(ValueError):
            BernoulliLossModel().sample_losses(0.5, -1, rng)


class TestGilbertElliott:
    def test_average_rate_approximately_preserved(self, rng):
        model = GilbertElliottLossModel(mean_burst_length=25.0, bad_state_fraction=0.1)
        losses = model.sample_losses(0.05, 80_000, rng)
        assert losses.mean() == pytest.approx(0.05, abs=0.01)

    def test_burstier_than_bernoulli(self, rng):
        """Consecutive losses should be much more frequent than under Bernoulli."""
        probability = 0.05
        ge = GilbertElliottLossModel(mean_burst_length=30.0, bad_state_fraction=0.08)
        ge_losses = ge.sample_losses(probability, 60_000, rng)
        bern_losses = BernoulliLossModel().sample_losses(probability, 60_000, rng)

        def consecutive_pairs(mask: np.ndarray) -> float:
            return float(np.mean(mask[1:] & mask[:-1]))

        assert consecutive_pairs(ge_losses) > 2.0 * consecutive_pairs(bern_losses)

    def test_extremes(self, rng):
        model = GilbertElliottLossModel()
        assert not model.sample_losses(0.0, 500, rng).any()
        assert model.sample_losses(1.0, 500, rng).all()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("bad_state_fraction", 0.0),
            ("bad_state_fraction", 1.0),
            ("bad_state_fraction", float("nan")),
            ("mean_burst_length", 0.5),
            ("mean_burst_length", float("inf")),
            ("good_scale", -0.1),
            ("good_scale", 1.5),
        ],
    )
    def test_invalid_parameters_are_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            GilbertElliottLossModel(**{field: value})

    def test_parameter_edges_are_accepted(self, rng):
        for model in (
            GilbertElliottLossModel(mean_burst_length=1.0),
            GilbertElliottLossModel(bad_state_fraction=0.99, good_scale=0.0),
            GilbertElliottLossModel(good_scale=1.0),
        ):
            losses = model.sample_losses(0.05, 2000, rng)
            assert losses.shape == (2000,) and 0.0 < losses.mean() < 0.2


class TestIspOutage:
    NODE_ISP = {"src": "ispA", "r1": "ispA", "r2": "ispB", "d": "ispB"}

    def test_links_in_failed_isp_lose_everything(self, rng):
        model = IspOutageLossModel(node_isp=self.NODE_ISP, failed_isps={"ispA"})
        losses = model.sample_losses(0.01, 1000, rng, link=("src", "r1"))
        assert losses.all()
        # Link whose endpoints are both in ispB is unaffected (just base loss).
        clean = model.sample_losses(0.01, 5000, rng, link=("r2", "d"))
        assert clean.mean() < 0.05

    def test_link_touching_failed_isp_on_either_end_is_down(self, rng):
        model = IspOutageLossModel(node_isp=self.NODE_ISP, failed_isps={"ispB"})
        assert model.sample_losses(0.01, 100, rng, link=("r1", "d")).all()
        assert model.sample_losses(0.01, 100, rng, link=("r2", "d")).all()

    def test_no_failures_delegates_to_base(self, rng):
        model = IspOutageLossModel(node_isp=self.NODE_ISP)
        losses = model.sample_losses(0.3, 30_000, rng, link=("src", "r1"))
        assert losses.mean() == pytest.approx(0.3, abs=0.02)

    def test_unknown_link_unaffected(self, rng):
        model = IspOutageLossModel(node_isp=self.NODE_ISP, failed_isps={"ispA"})
        losses = model.sample_losses(0.1, 10_000, rng, link=("x", "y"))
        assert losses.mean() == pytest.approx(0.1, abs=0.02)
