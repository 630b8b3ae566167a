"""Per-demand packet simulation: the exact differential oracle for Monte-Carlo.

:func:`repro.simulation.run_monte_carlo` simulates all demands x trials as
bit-packed arrays.  This module keeps the straightforward loop it replaced:
one session, stream by stream, one boolean *received* mask per delivery path.
It encodes the paper's reliability model (Sections 1.1 and 1.3) directly:

* a packet sent through a reflector arrives iff it survives both the
  source->reflector and the reflector->sink hop;
* the source->reflector draw is **shared** by every sink behind that
  reflector -- if the reflector never received packet ``t``, none of its sinks
  can -- which is why the analytic model multiplies failures only across
  *different* reflectors;
* the edgeserver reconstructs the stream from any copy: a packet survives iff
  at least one path delivered it.

Its draw order differs from the batched engine's, so with a random loss model
the two agree only statistically.  :class:`LinkKeyedLossModel` makes every
link's loss mask a pure function of the link, and then the two engines must
agree exactly (``tests/test_montecarlo.py``).

Two more replaced implementations live here as oracles:

* :func:`link_loss_profile` -- the per-link scan of every failure event that
  :class:`~repro.simulation.failures.LinkEventIndex` replaced; the compiled
  path table's profiles must equal :func:`scanned_profiles` bit for bit;
* :class:`SteppedGilbertElliott` -- the Gilbert-Elliott chain stepped one
  packet at a time, which the sojourn sampler of
  :class:`~repro.network.loss.GilbertElliottLossModel` replaced; the two must
  agree in law (``tests/test_ge_sampler.py``).
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.network.loss import BernoulliLossModel, LossModel, _check
from repro.simulation.failures import (
    OUTAGE_KINDS,
    FailureEvent,
    FailureSchedule,
)
from repro.simulation.montecarlo import _split_profile
from repro.simulation.packets import window_starts


@dataclass
class LinkKeyedLossModel(LossModel):
    """Loss masks that depend on the link alone: the generator is ignored.

    Each link owns a fixed stream of uniforms keyed by ``(salt, link)``; a
    packet is lost iff its uniform falls below the link's loss probability.
    Every trial therefore sees the same mask, any engine reaches the same
    masks whatever order it samples links in, and lowering a probability
    shrinks the loss set (common random numbers).
    """

    salt: int = 0

    def sample_losses(
        self,
        loss_probability: float,
        num_packets: int,
        rng: np.random.Generator,
        link: tuple[str, str] | None = None,
    ) -> np.ndarray:
        key = zlib.crc32("\x00".join(link or ()).encode())
        uniforms = np.random.default_rng([self.salt, key]).random(num_packets)
        return uniforms < loss_probability


@dataclass
class SteppedGilbertElliott(LossModel):
    """The Gilbert-Elliott chain stepped one packet at a time.

    Same parameters and law as :class:`~repro.network.loss.GilbertElliottLossModel`:
    a stationary initial state, then one transition draw per packet.
    """

    mean_burst_length: float = 20.0
    bad_state_fraction: float = 0.1
    good_scale: float = 0.2

    def _chain_parameters(
        self, probabilities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Per-link (loss_good, loss_bad) plus the shared transition rates."""
        pi_bad = self.bad_state_fraction
        loss_good = np.minimum(probabilities * self.good_scale, 1.0)
        loss_bad = np.clip(
            (probabilities - (1.0 - pi_bad) * loss_good) / pi_bad, 0.0, 1.0
        )
        p_leave_bad = 1.0 / max(self.mean_burst_length, 1.0)
        p_enter_bad = float(
            np.clip(p_leave_bad * pi_bad / max(1.0 - pi_bad, 1e-9), 0.0, 1.0)
        )
        return loss_good, loss_bad, p_leave_bad, p_enter_bad

    def sample_losses(
        self,
        loss_probability: float,
        num_packets: int,
        rng: np.random.Generator,
        link: tuple[str, str] | None = None,
    ) -> np.ndarray:
        _check(loss_probability, num_packets)
        if loss_probability in (0.0, 1.0):
            return np.full(num_packets, bool(loss_probability))
        pi_bad = self.bad_state_fraction
        loss_good = min(loss_probability * self.good_scale, 1.0)
        # Solve pi_bad * loss_bad + (1 - pi_bad) * loss_good = p for loss_bad.
        loss_bad = (loss_probability - (1.0 - pi_bad) * loss_good) / pi_bad
        loss_bad = float(np.clip(loss_bad, 0.0, 1.0))
        # Transition probabilities: leave bad state w.p. 1/burst, enter so that
        # the stationary distribution has mass pi_bad on the bad state.
        p_leave_bad = 1.0 / max(self.mean_burst_length, 1.0)
        p_enter_bad = p_leave_bad * pi_bad / max(1.0 - pi_bad, 1e-9)
        p_enter_bad = float(np.clip(p_enter_bad, 0.0, 1.0))

        states = np.empty(num_packets, dtype=bool)  # True = bad state
        uniforms = rng.random(num_packets)
        transitions = rng.random(num_packets)
        state = rng.random() < pi_bad
        for t in range(num_packets):
            states[t] = state
            if state:
                state = not (transitions[t] < p_leave_bad)
            else:
                state = transitions[t] < p_enter_bad
        loss_rates = np.where(states, loss_bad, loss_good)
        return uniforms < loss_rates

    def sample_loss_matrix(
        self,
        loss_probabilities: np.ndarray,
        trials: int,
        num_packets: int,
        rng: np.random.Generator,
        links=None,
    ) -> np.ndarray:
        """Vectorized chains: all ``(link, trial)`` state machines step together."""
        probabilities = np.asarray(loss_probabilities, dtype=np.float64)
        for probability in probabilities:
            _check(float(probability), num_packets)
        num_links = probabilities.size
        if num_links == 0 or trials == 0 or num_packets == 0:
            return np.zeros((num_links, trials, num_packets), dtype=bool)
        loss_good, loss_bad, p_leave_bad, p_enter_bad = self._chain_parameters(
            probabilities
        )
        uniforms = rng.random((num_links, trials, num_packets))
        transitions = rng.random((num_links, trials, num_packets))
        state = rng.random((num_links, trials)) < self.bad_state_fraction
        rates = np.empty((num_links, trials, num_packets))
        good = loss_good[:, None]
        bad = loss_bad[:, None]
        for t in range(num_packets):
            rates[:, :, t] = np.where(state, bad, good)
            step = transitions[:, :, t]
            state = np.where(state, step >= p_leave_bad, step < p_enter_bad)
        lost = uniforms < rates
        # Degenerate endpoints keep the exact semantics of sample_losses.
        lost[probabilities <= 0.0] = False
        lost[probabilities >= 1.0] = True
        return lost


# ---------------------------------------------------------------------------
# Failure profiles by scanning every event
# ---------------------------------------------------------------------------


def matches_link(
    event: FailureEvent, tail: str, head: str, node_isp: Mapping[str, str | None]
) -> bool:
    """Whether ``event`` affects the link ``tail -> head``."""
    if event.kind == "isp_outage":
        return node_isp.get(tail) == event.target or node_isp.get(head) == event.target
    if event.kind in ("reflector_crash", "node_outage"):
        return event.target in (tail, head)
    # link_congestion: receiver-side overload hits incoming links only.
    return head == event.target


def link_loss_profile(
    schedule: FailureSchedule,
    tail: str,
    head: str,
    num_packets: int,
    node_isp: Mapping[str, str | None] | None = None,
) -> np.ndarray | None:
    """Forced per-packet loss probability for the link, or ``None``.

    Outage events force loss 1.0; overlapping congestion events combine
    independently (``1 - prod(1 - severity)``).  Returns ``None`` when no
    event touches the link.
    """
    node_isp = node_isp or {}
    profile: np.ndarray | None = None
    for event in schedule.events:
        if not matches_link(event, tail, head, node_isp):
            continue
        if profile is None:
            profile = np.zeros(num_packets, dtype=np.float64)
        window = event.window_mask(num_packets)
        if event.kind in OUTAGE_KINDS:
            profile[window] = 1.0
        else:
            profile[window] = 1.0 - (1.0 - profile[window]) * (1.0 - event.severity)
    return profile


def scanned_profiles(
    links: list[tuple[str, str]],
    schedule: FailureSchedule,
    num_packets: int,
    node_isp: Mapping[str, str | None] | None,
) -> list[tuple[int, np.ndarray | None, list[tuple[int, int, float]]]]:
    """A path table's ``*_profiles`` list, one event scan per link."""
    out = []
    for row, (tail, head) in enumerate(links):
        hard, segments = _split_profile(
            link_loss_profile(schedule, tail, head, num_packets, node_isp)
        )
        if hard is not None or segments:
            out.append((row, hard, segments))
    return out


@dataclass
class DemandOutcome:
    """One demand's measured session: the oracle's report row."""

    demand_key: tuple[str, str]
    paths: int
    loss_rate: float
    worst_window_loss: float
    duplicates_discarded: int


# ---------------------------------------------------------------------------
# Packet bookkeeping and reconstruction
# ---------------------------------------------------------------------------


def loss_rate(received: np.ndarray) -> float:
    """Fraction of packets lost given a boolean *received* mask."""
    received = np.asarray(received, dtype=bool)
    if received.size == 0:
        return 1.0
    return float(1.0 - received.mean())


def window_loss_rates(received: np.ndarray, window: int) -> np.ndarray:
    """Loss rate per consecutive window of ``window`` packets (last may be short)."""
    received = np.asarray(received, dtype=bool)
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if received.size == 0:
        return np.empty(0)
    starts = window_starts(received.size, window)
    counts = np.add.reduceat(received, starts, dtype=np.int64)
    sizes = np.diff(np.append(starts, received.size))
    return 1.0 - counts / sizes


def windowed_loss_matrix(lost: np.ndarray, window: int) -> np.ndarray:
    """Per-window loss rates for a batched ``(..., num_packets)`` *lost* mask."""
    lost = np.asarray(lost, dtype=bool)
    starts = window_starts(lost.shape[-1], window)
    counts = np.add.reduceat(lost, starts, axis=-1, dtype=np.int64)
    sizes = np.diff(np.append(starts, lost.shape[-1]))
    return counts / sizes


def reconstruct(copies: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Union of per-path received masks (a packet survives iff any copy arrived).

    ``copies`` is a list of 1-D boolean arrays or a 2-D ``(paths, packets)``
    array.  An empty list yields an empty mask (nothing received).
    """
    if isinstance(copies, np.ndarray):
        if copies.ndim == 1:
            return copies.astype(bool)
        if copies.ndim != 2:
            raise ValueError("copies array must be 1-D or 2-D")
        if copies.shape[0] == 0:
            return np.zeros(copies.shape[1], dtype=bool)
        return copies.astype(bool).any(axis=0)
    if not copies:
        return np.zeros(0, dtype=bool)
    lengths = {len(copy) for copy in copies}
    if len(lengths) != 1:
        raise ValueError(f"all copies must have the same length, got lengths {sorted(lengths)}")
    return np.vstack([np.asarray(copy, dtype=bool) for copy in copies]).any(axis=0)


def post_reconstruction_loss(copies: list[np.ndarray] | np.ndarray) -> float:
    """Fraction of packets missing from *every* copy (the paper's quality metric)."""
    received = reconstruct(copies)
    if received.size == 0:
        return 1.0
    return float(1.0 - received.mean())


def duplicates_discarded(copies: list[np.ndarray] | np.ndarray) -> int:
    """Redundant packet copies the edgeserver throws away."""
    if isinstance(copies, np.ndarray):
        stacked = copies.astype(bool) if copies.ndim == 2 else copies.astype(bool)[None, :]
    elif copies:
        stacked = np.vstack([np.asarray(copy, dtype=bool) for copy in copies])
    else:
        return 0
    return int(np.maximum(stacked.sum(axis=0) - 1, 0).sum())


# ---------------------------------------------------------------------------
# Transport and the session loop
# ---------------------------------------------------------------------------


def simulate_link_losses(
    loss_probability: float,
    num_packets: int,
    rng: np.random.Generator,
    loss_model: LossModel,
    link: tuple[str, str],
    loss_profile: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean *lost* mask for one link, with the failure profile overlaid.

    Profile entries at 1.0 force loss outright; fractional entries
    (congestion) drop an extra draw of packets, taken only when present.
    """
    lost = loss_model.sample_losses(loss_probability, num_packets, rng, link=link)
    if loss_profile is not None:
        hard = loss_profile >= 1.0
        if bool(np.any((loss_profile > 0.0) & ~hard)):
            lost = lost | (rng.random(num_packets) < np.where(hard, 0.0, loss_profile))
        lost = lost | hard
    return lost


def simulate_stream_transport(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    stream: str,
    num_packets: int,
    rng: np.random.Generator,
    loss_model: LossModel,
    failures: FailureSchedule,
    node_isp: dict[str, str | None],
) -> dict[tuple[str, str], dict[str, np.ndarray]]:
    """Per-demand ``reflector -> received mask`` maps for one stream.

    The source->reflector draw happens once per used reflector and is shared
    by every sink that reflector serves.
    """
    used_reflectors: set[str] = set()
    for (_sink, demand_stream), reflectors in solution.assignments.items():
        if demand_stream == stream:
            used_reflectors.update(reflectors)

    reflector_lost: dict[str, np.ndarray] = {}
    for reflector in sorted(used_reflectors):
        reflector_lost[reflector] = simulate_link_losses(
            problem.stream_edge(stream, reflector).loss_probability,
            num_packets,
            rng,
            loss_model,
            link=(stream, reflector),
            loss_profile=link_loss_profile(failures, stream, reflector, num_packets, node_isp),
        )

    results: dict[tuple[str, str], dict[str, np.ndarray]] = {}
    for demand in problem.demands:
        if demand.stream != stream:
            continue
        per_path: dict[str, np.ndarray] = {}
        for reflector in solution.reflectors_serving(demand):
            lost_second_hop = simulate_link_losses(
                problem.delivery_loss(reflector, demand.sink),
                num_packets,
                rng,
                loss_model,
                link=(reflector, demand.sink),
                loss_profile=link_loss_profile(
                    failures, reflector, demand.sink, num_packets, node_isp
                ),
            )
            per_path[reflector] = ~reflector_lost[reflector] & ~lost_second_hop
        results[demand.key] = per_path
    return results


def simulate_solution(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    num_packets: int,
    rng: np.random.Generator,
    *,
    window: int = 200,
    loss_model: LossModel | None = None,
    failures: FailureSchedule | None = None,
    node_isp: dict[str, str | None] | None = None,
) -> list[DemandOutcome]:
    """One packet session of ``solution``: a :class:`DemandOutcome` per demand.

    ``node_isp`` defaults to the reflector colors recorded in the problem,
    exactly as in :func:`repro.simulation.run_monte_carlo`.
    """
    loss_model = loss_model or BernoulliLossModel()
    failures = failures or FailureSchedule()
    if node_isp is None:
        node_isp = {r: problem.color(r) for r in problem.reflectors}
    failures.validate_for_session(num_packets)

    per_demand_paths: dict[tuple[str, str], dict[str, np.ndarray]] = {}
    for stream in problem.streams:
        per_demand_paths.update(
            simulate_stream_transport(
                problem, solution, stream, num_packets, rng, loss_model, failures, node_isp
            )
        )

    outcomes = []
    for demand in problem.demands:
        copies = list(per_demand_paths.get(demand.key, {}).values())
        if copies:
            received = reconstruct(copies)
            loss = loss_rate(received)
            worst_window = float(np.max(window_loss_rates(received, window)))
        else:
            loss = worst_window = 1.0
        outcomes.append(
            DemandOutcome(
                demand_key=demand.key,
                paths=len(copies),
                loss_rate=loss,
                worst_window_loss=worst_window,
                duplicates_discarded=duplicates_discarded(copies),
            )
        )
    return outcomes
