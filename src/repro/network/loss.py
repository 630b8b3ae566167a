"""Link-loss models for the packet-level simulation.

The paper's analytical model (Section 1.3) is *independent Bernoulli loss*:
every packet traversing a link is lost with the link's measured probability,
independently across links.  :class:`BernoulliLossModel` implements exactly
that and is what the analytic/simulated cross-validation tests rely on.

:class:`GilbertElliottLossModel` -- two-state bursty loss (good/bad channel),
the classic model of correlated *in-link* loss -- exercises the extensions.
The paper explicitly allows losses on a single link to be correlated ("we
don't assume that loss of packets on individual links are uncorrelated");
this model lets the simulation show that the design quality degrades
gracefully under bursts of the same average rate.  ISP outages (the
catastrophic events of Sections 1.2 / 6.4) are ``isp_outage`` events of a
:class:`~repro.simulation.failures.FailureSchedule`, not a loss model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Below this loss probability the batched Bernoulli sampler uses geometric
#: skip-sampling (drawing only the loss *positions*); above it a dense
#: comparison draw is cheaper per generated value.
_SPARSE_SAMPLING_THRESHOLD = 0.45


def _gap_budget(mean_losses: float) -> float:
    """Gap draws budgeted per chain: mean + ~2 sigma + slack.

    Shared by the bucket planner, the position sampler, the packed bucket
    fill and the Gilbert-Elliott sojourn draws -- tuning the headroom in one
    place keeps the planner's "no row overdraws more than ~40%" invariant
    and the samplers' top-up frequency in sync (and the engines' memory
    model, :func:`repro.simulation.montecarlo.row_trial_bytes`, mirrors it).
    """
    return mean_losses + 2.0 * np.sqrt(mean_losses + 1.0) + 8.0


def _budget_buckets(
    probabilities: np.ndarray, sparse_rows: list[int], num_packets: int
) -> list[np.ndarray]:
    """Group sparse-sampled rows into buckets of similar gap budgets.

    The batched 3D draw sizes its gap budget by the bucket's largest loss
    probability, so rows are bucketed (by probability order) such that no row
    overdraws more than ~40% relative to its own need.
    """
    if not sparse_rows:
        return []

    def budget_of(p: float) -> float:
        return _gap_budget(num_packets * p)

    ordered = sorted(sparse_rows, key=lambda row: probabilities[row])
    buckets: list[list[int]] = []
    current: list[int] = []
    floor = 0.0
    for row in ordered:
        need = budget_of(float(probabilities[row]))
        if not current:
            current = [row]
            floor = need
        elif need <= 1.4 * floor + 8.0:
            current.append(row)
        else:
            buckets.append(current)
            current = [row]
            floor = need
    buckets.append(current)
    return [np.sort(np.asarray(bucket, dtype=np.int64)) for bucket in buckets]


def _bernoulli_position_parts(
    loss_probability: float,
    trials: int,
    length: int,
    rng: np.random.Generator,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Loss positions as ``(main, extras)`` part pairs of ``(trials, positions)``.

    The *main* part comes from one batched round of geometric gaps and is
    emitted trial-major with strictly increasing positions (globally sorted).
    Trials whose gap budget ran short continue in *extras*, which preserve
    the within-trial ordering but not the global one; with the ~2-sigma gap
    budget extras hold a fraction of a percent of the positions, so callers
    can treat them as a slow path.
    """
    if not 0.0 < loss_probability < 1.0:
        raise ValueError("loss positions need p strictly inside (0, 1)")
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if trials <= 0 or length <= 0:
        return empty, empty
    if loss_probability >= _SPARSE_SAMPLING_THRESHOLD:
        lost = rng.random((trials, length)) < loss_probability
        trial_idx, positions = np.nonzero(lost)
        return (trial_idx.astype(np.int64), positions.astype(np.int64)), empty
    inv_rate = np.float32(1.0 / -np.log1p(-loss_probability))
    budget = int(np.ceil(_gap_budget(length * loss_probability)))
    # Gaps beyond the session end all behave the same, so clamping before the
    # integer cast keeps the cumulative positions overflow-free even for tiny
    # loss probabilities (whose raw gaps can be astronomically large).
    gap_dtype = np.int32 if budget * (length + 2) < 2**31 else np.int64
    limit = np.float32(length + 1)
    trial_parts: list[np.ndarray] = []
    position_parts: list[np.ndarray] = []
    active = np.arange(trials, dtype=np.int64)
    cursor = np.full(trials, -1, dtype=np.int64)
    main: tuple[np.ndarray, np.ndarray] | None = None
    while active.size:
        draws = rng.standard_exponential((active.size, budget), dtype=np.float32)
        gaps = np.minimum(draws * inv_rate, limit).astype(gap_dtype)
        gaps += 1
        positions = np.cumsum(gaps, axis=1)
        positions += cursor[active, None].astype(gap_dtype)
        valid = positions < length
        counts = valid.sum(axis=1)
        part = (np.repeat(active, counts), positions[valid].astype(np.int64))
        if main is None:
            main = part
        else:
            trial_parts.append(part[0])
            position_parts.append(part[1])
        cursor[active] = positions[:, -1]
        active = active[positions[:, -1] < length - 1]
    if trial_parts:
        extras = (np.concatenate(trial_parts), np.concatenate(position_parts))
    else:
        extras = empty
    return main if main is not None else empty, extras


def sample_bernoulli_positions(
    loss_probability: float,
    trials: int,
    length: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of Bernoulli(p) losses over ``trials`` windows of ``length``.

    Returns ``(trial_indices, positions)`` -- the coordinates of every lost
    packet, exactly distributed as independent per-packet coin flips.  For
    small ``p`` the inter-loss gaps are sampled directly: a gap is
    ``floor(E / -log1p(-p)) + 1`` with ``E`` standard exponential, which is
    *exactly* Geometric(p), so only ``~p * length`` values are generated per
    trial instead of ``length``.  Positions are strictly increasing within
    each trial (several callers rely on this to OR bits without collisions),
    though a small tail of top-up entries may trail the trial-major bulk.
    """
    (main_trials, main_positions), (extra_trials, extra_positions) = (
        _bernoulli_position_parts(loss_probability, trials, length, rng)
    )
    if extra_trials.size == 0:
        return main_trials, main_positions
    return (
        np.concatenate([main_trials, extra_trials]),
        np.concatenate([main_positions, extra_positions]),
    )


class LossModel(ABC):
    """Samples per-packet loss indicator vectors for a link."""

    @abstractmethod
    def sample_losses(
        self,
        loss_probability: float,
        num_packets: int,
        rng: np.random.Generator,
        link: tuple[str, str] | None = None,
    ) -> np.ndarray:
        """Return a boolean array of length ``num_packets``; True means *lost*.

        ``loss_probability`` is the link's long-run average loss rate;
        implementations must (approximately) respect it so the analytic model
        remains the right first-order prediction.
        """

    def sample_loss_matrix(
        self,
        loss_probabilities: np.ndarray,
        trials: int,
        num_packets: int,
        rng: np.random.Generator,
        links: Sequence[tuple[str, str]] | None = None,
    ) -> np.ndarray:
        """Batched sampling: one boolean ``(links, trials, num_packets)`` block.

        The distribution of every ``(link, trial)`` row matches
        :meth:`sample_losses` for that link's probability (the vectorized
        Monte-Carlo engine relies on this).  The generic implementation loops
        over links and trials so any custom model works unmodified; the
        built-in models override it with vectorized samplers.
        """
        loss_probabilities = np.asarray(loss_probabilities, dtype=np.float64)
        out = np.empty((loss_probabilities.size, trials, num_packets), dtype=bool)
        for index, probability in enumerate(loss_probabilities):
            link = links[index] if links is not None else None
            for trial in range(trials):
                out[index, trial] = self.sample_losses(
                    float(probability), num_packets, rng, link=link
                )
        return out

    def sample_packed_loss_matrix(
        self,
        loss_probabilities: np.ndarray,
        trials: int,
        num_packets: int,
        rng: np.random.Generator,
        links: Sequence[tuple[str, str]] | None = None,
    ) -> np.ndarray:
        """Bit-packed loss matrix: ``(links, trials, ceil(packets / 8))`` uint8.

        Packet ``t`` of a row maps to bit ``t % 8`` (little-endian) of byte
        ``t // 8``; trailing pad bits are zero.  The Monte-Carlo engine works
        on this packed form (bitwise AND/OR + popcounts are ~8x cheaper than
        boolean arrays).  The default packs :meth:`sample_loss_matrix`;
        :class:`BernoulliLossModel` and :class:`GilbertElliottLossModel`
        build the bytes directly from sampled positions without
        materializing a boolean array at all.
        """
        dense = self.sample_loss_matrix(
            loss_probabilities, trials, num_packets, rng, links=links
        )
        return np.packbits(dense, axis=-1, bitorder="little")


@dataclass
class BernoulliLossModel(LossModel):
    """Independent per-packet loss -- the paper's base model."""

    def sample_losses(
        self,
        loss_probability: float,
        num_packets: int,
        rng: np.random.Generator,
        link: tuple[str, str] | None = None,
    ) -> np.ndarray:
        _check(loss_probability, num_packets)
        return rng.random(num_packets) < loss_probability

    def sample_packed_loss_matrix(
        self,
        loss_probabilities: np.ndarray,
        trials: int,
        num_packets: int,
        rng: np.random.Generator,
        links: Sequence[tuple[str, str]] | None = None,
    ) -> np.ndarray:
        """Packed Bernoulli sampling straight from loss positions.

        Rows with similar probabilities are bucketed into single 3D
        exponential-gap draws (:func:`_budget_buckets`); loss positions turn
        into byte indices + bit values OR-ed straight into the packed output,
        skipping any boolean or dense intermediate.  This is the hot path of
        the Monte-Carlo engine.
        """
        probabilities = np.asarray(loss_probabilities, dtype=np.float64)
        for probability in probabilities:
            _check(float(probability), num_packets)
        num_bytes = (num_packets + 7) // 8
        shape = (probabilities.size, trials, num_bytes)
        out = np.zeros(shape, dtype=np.uint8)
        if trials == 0 or num_packets == 0 or probabilities.size == 0:
            return out
        flat_out = out.reshape(-1)
        sparse_rows: list[int] = []
        for index, probability in enumerate(probabilities):
            p = float(probability)
            if p <= 0.0:
                continue
            if p >= 1.0:
                out[index] = 0xFF
                if num_packets % 8:
                    out[index, :, -1] = (1 << (num_packets % 8)) - 1
            elif p >= _SPARSE_SAMPLING_THRESHOLD:
                lost = rng.random((trials, num_packets)) < p
                out[index] = np.packbits(lost, axis=-1, bitorder="little")
            else:
                sparse_rows.append(index)
        for rows in _budget_buckets(probabilities, sparse_rows, num_packets):
            self._fill_packed_bucket(
                flat_out, probabilities, rows, trials, num_packets, num_bytes, rng
            )
        return out

    @staticmethod
    def _fill_packed_bucket(
        flat_out: np.ndarray,
        probabilities: np.ndarray,
        rows: np.ndarray,
        trials: int,
        num_packets: int,
        num_bytes: int,
        rng: np.random.Generator,
    ) -> None:
        """Sample one bucket of similar-probability rows in a single 3D draw.

        Loss positions become byte indices + bit values OR-ed into the packed
        output with one unbuffered ``bitwise_or.at`` (correct under any order
        and under same-byte collisions).  The ~2-sigma gap budget is sized by
        the bucket's largest probability; chains that run short continue with
        vectorized top-up rounds over the remaining packets (the process is
        memoryless).
        """
        bucket = probabilities[rows]
        inv_rate = (1.0 / -np.log1p(-bucket)).astype(np.float32)
        budget = int(np.ceil(_gap_budget(num_packets * float(bucket.max()))))
        gap_dtype = np.int32 if budget * (num_packets + 2) < 2**31 else np.int64
        draws = rng.standard_exponential((rows.size, trials, budget), dtype=np.float32)
        gaps = np.minimum(
            draws * inv_rate[:, None, None], np.float32(num_packets + 1)
        ).astype(gap_dtype)
        gaps += 1
        positions = np.cumsum(gaps, axis=2)
        positions -= 1
        valid = positions < num_packets
        counts = valid.sum(axis=2)
        base = (rows[:, None] * trials + np.arange(trials)[None, :]) * num_bytes
        kept = positions[valid]
        flat_index = np.repeat(base.ravel(), counts.ravel()) + (kept >> 3)
        bits = np.left_shift(1, kept & 7).astype(np.uint8)
        if flat_index.size:
            np.bitwise_or.at(flat_out, flat_index, bits)
        # Chains whose budget ran short (a few percent with the 2-sigma
        # budget) continue in bulk: vectorized rounds over the short chains
        # only, with the entries OR-ed in at the end (bitwise_or.at is
        # unbuffered, so unsorted/duplicate byte indices are safe).
        last = positions[:, :, -1]
        short_row, short_trial = np.nonzero(last < num_packets - 1)
        if short_row.size:
            chain_offsets = (rows[short_row] * trials + short_trial) * num_bytes
            chain_inv = inv_rate[short_row]
            cursor = last[short_row, short_trial].astype(np.int64)
            active = np.arange(short_row.size)
            tail_index_parts: list[np.ndarray] = []
            tail_bit_parts: list[np.ndarray] = []
            topup = max(8, budget // 8)
            while active.size:
                draws = rng.standard_exponential((active.size, topup), dtype=np.float32)
                gaps = np.minimum(
                    draws * chain_inv[active, None], np.float32(num_packets + 1)
                ).astype(np.int64)
                gaps += 1
                tail_positions = np.cumsum(gaps, axis=1)
                tail_positions += cursor[active, None]
                tail_valid = tail_positions < num_packets
                tail_counts = tail_valid.sum(axis=1)
                kept_tail = tail_positions[tail_valid]
                tail_index_parts.append(
                    np.repeat(chain_offsets[active], tail_counts) + (kept_tail >> 3)
                )
                tail_bit_parts.append(np.left_shift(1, kept_tail & 7).astype(np.uint8))
                cursor[active] = tail_positions[:, -1]
                active = active[tail_positions[:, -1] < num_packets - 1]
            np.bitwise_or.at(
                flat_out,
                np.concatenate(tail_index_parts),
                np.concatenate(tail_bit_parts),
            )


@dataclass
class GilbertElliottLossModel(LossModel):
    """Two-state (good/bad) bursty loss with a configurable mean burst length.

    The chain spends a ``pi_bad`` fraction of time in the bad state; packets
    are lost with probability ``loss_good`` in the good state and
    ``loss_bad`` in the bad state.  Given the target average ``p`` we place
    the chain so that ``pi_bad * loss_bad + (1 - pi_bad) * loss_good = p``
    with ``loss_good = p * good_scale`` (mostly clean) and ``loss_bad``
    derived; the mean sojourn time in the bad state is ``mean_burst_length``
    packets.

    Sampling never steps packets: the state sequence is drawn as alternating
    geometric sojourns (:meth:`_bad_state_mask`) and each packet takes its
    bit from one of two packed Bernoulli rows, at ``loss_good`` and
    ``loss_bad``, according to its state.
    """

    mean_burst_length: float = 20.0
    bad_state_fraction: float = 0.1
    good_scale: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.bad_state_fraction < 1.0:
            raise ValueError(
                f"bad_state_fraction must lie in (0, 1), got {self.bad_state_fraction}"
            )
        if not 1.0 <= self.mean_burst_length < np.inf:
            raise ValueError(
                f"mean_burst_length must be a finite number >= 1, got {self.mean_burst_length}"
            )
        if not 0.0 <= self.good_scale <= 1.0:
            raise ValueError(f"good_scale must lie in [0, 1], got {self.good_scale}")

    def _chain_parameters(self, probabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-link ``(loss_good, loss_bad)``; links at ``p = 1`` lose every packet."""
        pi_bad = self.bad_state_fraction
        loss_good = np.minimum(probabilities * self.good_scale, 1.0)
        # Solve pi_bad * loss_bad + (1 - pi_bad) * loss_good = p for loss_bad.
        loss_bad = np.clip((probabilities - (1.0 - pi_bad) * loss_good) / pi_bad, 0.0, 1.0)
        full = probabilities >= 1.0
        loss_good[full] = 1.0
        loss_bad[full] = 1.0
        return loss_good, loss_bad

    def _transition_rates(self) -> tuple[float, float]:
        """``(p_enter_bad, p_leave_bad)``, shared by every link.

        Leave the bad state w.p. 1/burst; enter it so that the stationary
        distribution puts mass ``bad_state_fraction`` on the bad state.
        """
        pi_bad = self.bad_state_fraction
        p_leave_bad = 1.0 / self.mean_burst_length
        return min(p_leave_bad * pi_bad / (1.0 - pi_bad), 1.0), p_leave_bad

    def _sojourn_budget(self, num_packets: int) -> int:
        """Sojourn draws budgeted per chain: two per mean cycle, plus the first."""
        p_enter_bad, p_leave_bad = self._transition_rates()
        expected = 2.0 * num_packets / (1.0 / p_enter_bad + 1.0 / p_leave_bad) + 1.0
        return int(np.ceil(_gap_budget(expected)))

    def _bad_state_mask(
        self, chains: int, num_packets: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Packed ``(chains, bytes)`` mask of the packets each chain spends bad.

        The initial state is stationary (bad w.p. ``bad_state_fraction``);
        then good and bad sojourns alternate, each an exact Geometric(q) gap
        ``floor(E / -log1p(-q)) + 1`` with ``q = p_enter_bad`` in the good
        state and ``q = p_leave_bad`` in the bad one -- the law of the
        per-packet chain.  A sojourn's end toggles the state, so the mask is
        the running XOR of the packed toggle bits.  Chains whose sojourn
        budget ends inside the session continue in top-up rounds.
        """
        num_bytes = (num_packets + 7) // 8
        with np.errstate(divide="ignore"):
            # Indexed by state (0 = good, 1 = bad); q = 1 gives rate 0, gap 1.
            inv_rate = (1.0 / -np.log1p(-np.array(self._transition_rates()))).astype(np.float32)
        bad = rng.random(chains) < self.bad_state_fraction
        budget = self._sojourn_budget(num_packets)
        parity = (np.arange(budget) & 1).astype(np.int8)
        limit = np.float32(num_packets + 1)
        mask = np.zeros(chains * num_bytes, dtype=np.uint8)
        # A chain that starts bad toggles at packet 0.
        mask[np.flatnonzero(bad) * num_bytes] = 1
        state = bad.astype(np.int8)  # state of each chain's next sojourn
        cursor = np.zeros(chains, dtype=np.int64)
        active = np.arange(chains)
        while active.size:
            draws = rng.standard_exponential((active.size, budget), dtype=np.float32)
            draws *= inv_rate[state[active, None] ^ parity]
            ends = np.fmin(draws, limit).astype(np.int64)
            del draws
            ends += 1
            np.cumsum(ends, axis=1, out=ends)
            ends += cursor[active, None]
            inside = ends < num_packets
            toggles = ends[inside]
            np.bitwise_or.at(
                mask,
                np.repeat(active * num_bytes, inside.sum(axis=1)) + (toggles >> 3),
                np.left_shift(1, toggles & 7).astype(np.uint8),
            )
            cursor[active] = ends[:, -1]
            state[active] ^= budget & 1
            active = active[ends[:, -1] < num_packets]
        mask = mask.reshape(chains, num_bytes)
        # Running XOR: first within each byte (little-endian bit order), then
        # the parity of all earlier bytes flips whole bytes.
        mask ^= mask << 1
        mask ^= mask << 2
        mask ^= mask << 4
        byte_parity = mask >> 7
        carry = np.bitwise_xor.accumulate(byte_parity, axis=1)
        carry ^= byte_parity
        mask ^= carry * np.uint8(0xFF)
        return mask

    def sample_losses(
        self,
        loss_probability: float,
        num_packets: int,
        rng: np.random.Generator,
        link: tuple[str, str] | None = None,
    ) -> np.ndarray:
        return self.sample_loss_matrix(np.array([loss_probability]), 1, num_packets, rng)[0, 0]

    def sample_loss_matrix(
        self,
        loss_probabilities: np.ndarray,
        trials: int,
        num_packets: int,
        rng: np.random.Generator,
        links: Sequence[tuple[str, str]] | None = None,
    ) -> np.ndarray:
        """The packed sample, unpacked to booleans."""
        packed = self.sample_packed_loss_matrix(loss_probabilities, trials, num_packets, rng)
        return np.unpackbits(packed, axis=-1, count=num_packets, bitorder="little").astype(bool)

    def sample_packed_loss_matrix(
        self,
        loss_probabilities: np.ndarray,
        trials: int,
        num_packets: int,
        rng: np.random.Generator,
        links: Sequence[tuple[str, str]] | None = None,
    ) -> np.ndarray:
        """Packed chains: bad-state masks picking between two Bernoulli rows.

        Draw order: initial states and sojourns of every ``(link, trial)``
        chain, then the packed ``loss_good`` rows, then the ``loss_bad``
        rows (both through :class:`BernoulliLossModel`).  A packet is lost
        iff the row of its state lost it.
        """
        probabilities = np.asarray(loss_probabilities, dtype=np.float64)
        for probability in probabilities:
            _check(float(probability), num_packets)
        num_bytes = (num_packets + 7) // 8
        if probabilities.size == 0 or trials == 0 or num_packets == 0:
            return np.zeros((probabilities.size, trials, num_bytes), dtype=np.uint8)
        loss_good, loss_bad = self._chain_parameters(probabilities)
        in_bad = self._bad_state_mask(probabilities.size * trials, num_packets, rng)
        in_bad = in_bad.reshape(probabilities.size, trials, num_bytes)
        bernoulli = BernoulliLossModel()
        lost = bernoulli.sample_packed_loss_matrix(loss_good, trials, num_packets, rng)
        lost_bad = bernoulli.sample_packed_loss_matrix(loss_bad, trials, num_packets, rng)
        # (good & ~in_bad) | (bad & in_bad), in place.
        lost_bad &= in_bad
        np.invert(in_bad, out=in_bad)
        lost &= in_bad
        lost |= lost_bad
        return lost


def _check(loss_probability: float, num_packets: int) -> None:
    if not 0.0 <= loss_probability <= 1.0:
        raise ValueError(f"loss probability must lie in [0, 1], got {loss_probability}")
    if num_packets < 0:
        raise ValueError(f"num_packets must be non-negative, got {num_packets}")
