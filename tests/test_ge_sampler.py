"""The Gilbert-Elliott sojourn sampler against its closed form and its oracle.

:class:`~repro.network.loss.GilbertElliottLossModel` draws each chain as
alternating geometric sojourns and picks every packet's bit from one of two
packed Bernoulli rows.  It must have the law of the chain stepped one packet
at a time (``tests/sim_oracle.py::SteppedGilbertElliott``).  Under fixed
seeds, statistics of each row -- the loss rate, the loss rate of the first
``HEAD`` packets (which sees the initial state's law) and the joint loss
``P(L_t = L_{t+k} = 1)`` at lags 1, 5 and 40 -- are compared with

* the chain's closed form: with transition matrix ``T``, per-state loss
  ``r`` and state law ``pi_t = pi_0 T^t``, ``P(L_t = 1) = pi_t . r`` and
  ``P(L_t = L_{t+k} = 1) = (pi_t o r)^T T^k r``;
* the stepped oracle, as a two-sample z-score.

Rows are independent, so each statistic's standard error comes from the
spread of its per-row values; every ``|z|`` must stay within 4.
"""

from __future__ import annotations

import numpy as np
import pytest
from sim_oracle import SteppedGilbertElliott

from repro.network.loss import GilbertElliottLossModel

LAGS = (1, 5, 40)
HEAD = 8
PACKETS = 1000
TRIALS = 300
PROBABILITIES = (0.03, 0.2)

#: Default parameters, short and medium bursts, and bad states holding half
#: and most of the time (with mean_burst_length 1 and fraction 0.7 the entry
#: rate clips at 1, so the chain is not stationary at its initial law).
PARAMETERS = [
    {},
    {"mean_burst_length": 1.0},
    {"mean_burst_length": 3.0},
    {"bad_state_fraction": 0.5},
    {"bad_state_fraction": 0.7},
    {"mean_burst_length": 3.0, "bad_state_fraction": 0.5},
    {"mean_burst_length": 1.0, "bad_state_fraction": 0.7},
]


def _row_statistics(lost: np.ndarray) -> np.ndarray:
    """Per-row ``[loss rate, head loss rate, joint loss at each lag]``."""
    rows = lost.reshape(-1, lost.shape[-1]).astype(np.float64)
    columns = [rows.mean(axis=1), rows[:, :HEAD].mean(axis=1)]
    for lag in LAGS:
        columns.append((rows[:, lag:] * rows[:, :-lag]).mean(axis=1))
    return np.stack(columns, axis=1)


def _closed_form(parameters: dict, probability: float, num_packets: int) -> np.ndarray:
    """Exact expectations of :func:`_row_statistics` for one row of the chain."""
    model = SteppedGilbertElliott(**parameters)
    pi_bad = model.bad_state_fraction
    loss_good = min(probability * model.good_scale, 1.0)
    loss_bad = float(np.clip((probability - (1 - pi_bad) * loss_good) / pi_bad, 0.0, 1.0))
    p_leave = 1.0 / model.mean_burst_length
    p_enter = min(p_leave * pi_bad / (1.0 - pi_bad), 1.0)
    transition = np.array([[1.0 - p_enter, p_enter], [p_leave, 1.0 - p_leave]])
    rates = np.array([loss_good, loss_bad])
    laws = np.empty((num_packets, 2))
    laws[0] = [1.0 - pi_bad, pi_bad]
    for t in range(1, num_packets):
        laws[t] = laws[t - 1] @ transition
    loss = laws @ rates
    expected = [float(loss.mean()), float(loss[:HEAD].mean())]
    for lag in LAGS:
        ahead = np.linalg.matrix_power(transition, lag) @ rates
        expected.append(float(((laws[: num_packets - lag] * rates) @ ahead).mean()))
    return np.asarray(expected)


def _packed_sample(model, seed: int) -> np.ndarray:
    packed = model.sample_packed_loss_matrix(
        np.asarray(PROBABILITIES), TRIALS, PACKETS, np.random.default_rng(seed)
    )
    return np.unpackbits(packed, axis=-1, count=PACKETS, bitorder="little").astype(bool)


def _z_scores(sample: np.ndarray, expected: np.ndarray, expected_se=0.0) -> np.ndarray:
    stats = _row_statistics(sample)
    se = stats.std(axis=0, ddof=1) / np.sqrt(stats.shape[0])
    return (stats.mean(axis=0) - expected) / np.maximum(np.hypot(se, expected_se), 1e-12)


@pytest.mark.parametrize("parameters", PARAMETERS, ids=lambda p: str(p) or "default")
class TestLaw:
    def test_matches_closed_form(self, parameters):
        lost = _packed_sample(GilbertElliottLossModel(**parameters), seed=11)
        for index, probability in enumerate(PROBABILITIES):
            expected = _closed_form(parameters, probability, PACKETS)
            z = _z_scores(lost[index], expected)
            assert np.all(np.abs(z) <= 4.0), (probability, z)

    def test_matches_stepped_oracle(self, parameters):
        lost = _packed_sample(GilbertElliottLossModel(**parameters), seed=12)
        oracle = SteppedGilbertElliott(**parameters).sample_loss_matrix(
            np.asarray(PROBABILITIES), TRIALS, PACKETS, np.random.default_rng(13)
        )
        for index in range(len(PROBABILITIES)):
            reference = _row_statistics(oracle[index])
            reference_se = reference.std(axis=0, ddof=1) / np.sqrt(reference.shape[0])
            z = _z_scores(lost[index], reference.mean(axis=0), reference_se)
            assert np.all(np.abs(z) <= 4.0), (PROBABILITIES[index], z)


def test_closed_form_at_the_default_rate():
    """Default parameters at p = 0.03: mean loss p, then the bursts' lag profile."""
    expected = _closed_form({}, 0.03, PACKETS)
    assert expected[0] == pytest.approx(0.03, rel=1e-12)
    assert expected[1] == pytest.approx(0.03, rel=1e-12)  # stationary from the start
    assert expected[2] == pytest.approx(0.005796, abs=5e-6)
    assert expected[4] == pytest.approx(0.001427, abs=5e-6)


@pytest.mark.parametrize("parameters", PARAMETERS[:3], ids=["default", "burst1", "burst3"])
def test_top_up_rounds_keep_the_law(parameters, monkeypatch):
    """A 3-sojourn budget makes every chain continue in many top-up rounds."""
    monkeypatch.setattr(GilbertElliottLossModel, "_sojourn_budget", lambda self, n: 3)
    lost = _packed_sample(GilbertElliottLossModel(**parameters), seed=14)
    for index, probability in enumerate(PROBABILITIES):
        z = _z_scores(lost[index], _closed_form(parameters, probability, PACKETS))
        assert np.all(np.abs(z) <= 4.0), (probability, z)


def test_single_rows_match_the_per_packet_loop():
    """``sample_losses`` against the oracle's one-packet-at-a-time loop."""
    model, oracle = GilbertElliottLossModel(), SteppedGilbertElliott()
    rng_new, rng_old = np.random.default_rng(21), np.random.default_rng(22)
    new = np.stack([model.sample_losses(0.05, PACKETS, rng_new) for _ in range(120)])
    old = np.stack([oracle.sample_losses(0.05, PACKETS, rng_old) for _ in range(120)])
    reference = _row_statistics(old)
    reference_se = reference.std(axis=0, ddof=1) / np.sqrt(reference.shape[0])
    z = _z_scores(new, reference.mean(axis=0), reference_se)
    assert np.all(np.abs(z) <= 4.0), z


class TestPackedRows:
    def test_degenerate_rows_and_pad_bits(self):
        model = GilbertElliottLossModel()
        for num_packets in (1, 8, 613, 2000):
            packed = model.sample_packed_loss_matrix(
                np.array([0.0, 1.0, 0.03, 0.6]), 5, num_packets, np.random.default_rng(3)
            )
            assert packed.shape == (4, 5, (num_packets + 7) // 8)
            dense = np.unpackbits(packed, axis=-1, bitorder="little")
            assert not dense[..., num_packets:].any()
            assert not dense[0].any()
            assert dense[1, :, :num_packets].all()

    def test_dense_views_unpack_the_packed_sample(self):
        model = GilbertElliottLossModel(mean_burst_length=3.0)
        packed = model.sample_packed_loss_matrix(
            np.array([0.1, 0.02]), 4, 77, np.random.default_rng(5)
        )
        dense = model.sample_loss_matrix(np.array([0.1, 0.02]), 4, 77, np.random.default_rng(5))
        assert dense.dtype == bool and dense.shape == (2, 4, 77)
        assert np.array_equal(np.packbits(dense, axis=-1, bitorder="little"), packed)
        row = model.sample_losses(0.1, 77, np.random.default_rng(5))
        single = model.sample_loss_matrix(np.array([0.1]), 1, 77, np.random.default_rng(5))
        assert np.array_equal(row, single[0, 0])

    def test_empty_shapes(self):
        model = GilbertElliottLossModel()
        rng = np.random.default_rng(0)
        assert model.sample_packed_loss_matrix(np.array([]), 3, 10, rng).shape == (0, 3, 2)
        assert model.sample_packed_loss_matrix(np.array([0.1]), 0, 10, rng).shape == (1, 0, 2)
        assert model.sample_losses(0.1, 0, rng).shape == (0,)

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValueError, match="loss probability"):
            GilbertElliottLossModel().sample_losses(1.5, 10, np.random.default_rng(0))
