"""Batched Monte-Carlo reliability engine.

Estimating tail reliability under correlated failures needs hundreds of
packet sessions over every demand.  This module simulates *all demands x all
trials* as numpy arrays:

* the (problem, solution) pair is compiled once into a :class:`PathTable` --
  flat arrays of first-hop links, per-path second-hop losses, forced-loss
  profiles, and boundaries grouping paths by demand;
* per-link loss matrices are *bit-packed* (one uint8 byte per 8 packets):
  Bernoulli links sample only the loss positions (geometric skip-sampling,
  :func:`~repro.network.loss.sample_bernoulli_positions`) OR-ed in as
  byte-index/bit pairs; Gilbert-Elliott links draw geometric state sojourns
  and pick each packet's bit from one of two such rows; other models pack a
  dense draw;
* the shared source->reflector draw is OR-broadcast onto its paths, and
  reconstruction is a bitwise-AND fold over each demand's path block (a
  packet is lost iff *every* copy lost it);
* loss counts and the worst-window statistic come from byte popcounts folded
  per window (non-byte-aligned windows unpack first).

Determinism contract
--------------------
Randomness is consumed in large blocks: a run is reproducible from ``(seed,
trials, num_packets, loss model, failure schedule, max_batch_bytes)``.
Worst-window statistics use windows that are cheapest when ``window`` is a
multiple of 8 (byte-aligned popcount folds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.network.loss import (
    _SPARSE_SAMPLING_THRESHOLD,
    BernoulliLossModel,
    GilbertElliottLossModel,
    LossModel,
    _gap_budget,
    sample_bernoulli_positions,
)
from repro.simulation.failures import FailureSchedule, LinkEventIndex
from repro.simulation.packets import window_starts

if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    _popcount = np.bitwise_count
else:  # pragma: no cover - exercised only on old numpy
    _POPCOUNT_TABLE = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

    def _popcount(values: np.ndarray) -> np.ndarray:
        return _POPCOUNT_TABLE[values]


@dataclass
class MonteCarloConfig:
    """Configuration of a batched Monte-Carlo run.

    Attributes
    ----------
    num_packets:
        Packets per simulated session (one trial = one session).
    trials:
        Number of independent sessions.
    window:
        Window (in packets) of the worst-window loss statistic.  Multiples
        of 8 keep the batched engine on its byte-aligned fast path.
    loss_model:
        Per-link loss process shared by all trials.
    failures:
        Injected failure schedule, identical across trials (sample a fresh
        schedule and run separate configs to sweep failure draws).
    seed:
        Seed of the engine generator (ignored when an explicit generator is
        passed to :func:`run_monte_carlo`).
    max_batch_bytes:
        Approximate working-set bound; trials are chunked so intermediate
        matrices stay under it.  Part of the determinism contract (chunk
        boundaries shift the random-block layout).
    """

    num_packets: int = 2000
    trials: int = 50
    window: int = 200
    loss_model: LossModel = field(default_factory=BernoulliLossModel)
    failures: FailureSchedule = field(default_factory=FailureSchedule)
    seed: int | None = None
    max_batch_bytes: int = 64 * 2**20

    def __post_init__(self) -> None:
        if self.num_packets <= 0:
            raise ValueError("num_packets must be positive")
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.max_batch_bytes <= 0:
            raise ValueError("max_batch_bytes must be positive")


# ---------------------------------------------------------------------------
# Path-table compilation
# ---------------------------------------------------------------------------


@dataclass
class PathTable:
    """Flat arrays describing every delivery path of a solution.

    Paths are ordered stream-major (streams in problem order, demands in
    problem order within their stream, serving reflectors in solution order)
    and are contiguous per demand, so ``demand_path_starts`` delimit each
    demand's block of the path axis.  ``*_profiles`` carry the failure
    schedule per link: a bit-packed hard-outage mask plus piecewise-constant
    congestion segments ``(start, end, severity)``.
    """

    demand_keys: list[tuple[str, str]]
    demand_thresholds: np.ndarray
    demand_path_starts: np.ndarray
    demand_num_paths: np.ndarray
    first_hop_links: list[tuple[str, str]]
    first_hop_loss: np.ndarray
    first_hop_profiles: list[tuple[int, np.ndarray | None, list[tuple[int, int, float]]]]
    first_hop_path_rows: list[np.ndarray]
    path_links: list[tuple[str, str]]
    path_loss: np.ndarray
    path_first_hop: np.ndarray
    path_profiles: list[tuple[int, np.ndarray | None, list[tuple[int, int, float]]]]

    @property
    def num_paths(self) -> int:
        return len(self.path_links)

    @property
    def num_first_hops(self) -> int:
        return len(self.first_hop_links)


def _profile_segments(soft: np.ndarray) -> list[tuple[int, int, float]]:
    """Decompose a fractional forced-loss profile into constant runs."""
    changes = np.flatnonzero(np.diff(soft) != 0.0) + 1
    bounds = np.concatenate(([0], changes, [soft.size]))
    segments = []
    for start, end in zip(bounds[:-1], bounds[1:]):
        value = float(soft[start])
        if value > 0.0:
            segments.append((int(start), int(end), value))
    return segments


def _split_profile(
    profile: np.ndarray | None,
) -> tuple[np.ndarray | None, list[tuple[int, int, float]]]:
    """Split a forced-loss profile into a packed hard mask + soft segments."""
    if profile is None:
        return None, []
    hard = profile >= 1.0
    soft = np.where(hard, 0.0, profile)
    packed_hard = np.packbits(hard, bitorder="little") if hard.any() else None
    return packed_hard, _profile_segments(soft)


def link_profiles(
    links: list[tuple[str, str]], index: LinkEventIndex, num_packets: int
) -> list[tuple[int, np.ndarray | None, list[tuple[int, int, float]]]]:
    """``(row, packed hard mask, congestion segments)`` of every link a failure touches.

    Each link looks up its sorted tuple of matching events in ``index``;
    links sharing a tuple share one profile, computed and split once.
    """
    splits: dict[tuple[int, ...], tuple[np.ndarray | None, list[tuple[int, int, float]]]] = {}
    out = []
    for row, (tail, head) in enumerate(links):
        events = index.link_events(tail, head)
        if not events:
            continue
        if events not in splits:
            splits[events] = _split_profile(index.loss_profile(events, num_packets))
        hard, segments = splits[events]
        if hard is not None or segments:
            out.append((row, hard, segments))
    return out


def compile_path_table(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    failures: FailureSchedule,
    num_packets: int,
    node_isp: dict[str, str | None],
) -> PathTable:
    """Flatten (problem, solution, failures) into the engine's array form."""
    demand_keys: list[tuple[str, str]] = []
    thresholds: list[float] = []
    starts: list[int] = []
    num_paths: list[int] = []
    first_hop_index: dict[tuple[str, str], int] = {}
    first_hop_links: list[tuple[str, str]] = []
    first_hop_loss: list[float] = []
    path_links: list[tuple[str, str]] = []
    path_loss: list[float] = []
    path_first_hop: list[int] = []

    for stream in problem.streams:
        for demand in problem.demands:
            if demand.stream != stream:
                continue
            serving = solution.reflectors_serving(demand)
            if not serving:
                continue
            demand_keys.append(demand.key)
            thresholds.append(demand.success_threshold)
            starts.append(len(path_links))
            num_paths.append(len(serving))
            for reflector in serving:
                link = (stream, reflector)
                if link not in first_hop_index:
                    first_hop_index[link] = len(first_hop_links)
                    first_hop_links.append(link)
                    first_hop_loss.append(problem.stream_edge(stream, reflector).loss_probability)
                path_links.append((reflector, demand.sink))
                path_loss.append(problem.delivery_loss(reflector, demand.sink))
                path_first_hop.append(first_hop_index[link])

    event_index = failures.link_index(node_isp)
    path_first_hop_array = np.asarray(path_first_hop, dtype=np.intp)
    return PathTable(
        demand_keys=demand_keys,
        demand_thresholds=np.asarray(thresholds, dtype=np.float64),
        demand_path_starts=np.asarray(starts, dtype=np.intp),
        demand_num_paths=np.asarray(num_paths, dtype=np.int64),
        first_hop_links=first_hop_links,
        first_hop_loss=np.asarray(first_hop_loss, dtype=np.float64),
        first_hop_profiles=link_profiles(first_hop_links, event_index, num_packets),
        first_hop_path_rows=[
            np.flatnonzero(path_first_hop_array == index)
            for index in range(len(first_hop_links))
        ],
        path_links=path_links,
        path_loss=np.asarray(path_loss, dtype=np.float64),
        path_first_hop=path_first_hop_array,
        path_profiles=link_profiles(path_links, event_index, num_packets),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class DemandReliability:
    """Per-demand Monte-Carlo outcome: one entry per trial."""

    demand_key: tuple[str, str]
    threshold: float
    paths: int
    loss: np.ndarray
    worst_window: np.ndarray
    duplicates: np.ndarray

    @property
    def mean_loss(self) -> float:
        return float(self.loss.mean())

    @property
    def loss_std(self) -> float:
        return float(self.loss.std(ddof=1)) if self.loss.size > 1 else 0.0

    @property
    def mean_worst_window(self) -> float:
        return float(self.worst_window.mean())

    @property
    def meets_threshold_fraction(self) -> float:
        budget = (1.0 - self.threshold) + 1e-12
        return float(np.mean(self.loss <= budget))


@dataclass
class MonteCarloReport:
    """Aggregate + per-demand results of a batched Monte-Carlo run."""

    num_packets: int
    trials: int
    window: int
    demands: list[DemandReliability]

    @property
    def loss_matrix(self) -> np.ndarray:
        """Per-demand, per-trial loss rates: shape ``(demands, trials)``."""
        if not self.demands:
            return np.zeros((0, self.trials))
        return np.stack([d.loss for d in self.demands])

    @property
    def trial_mean_loss(self) -> np.ndarray:
        """Mean loss across demands, per trial."""
        matrix = self.loss_matrix
        if matrix.size == 0:
            return np.zeros(self.trials)
        return matrix.mean(axis=0)

    @property
    def mean_loss(self) -> float:
        matrix = self.loss_matrix
        return float(matrix.mean()) if matrix.size else 0.0

    @property
    def max_loss(self) -> float:
        matrix = self.loss_matrix
        return float(matrix.max()) if matrix.size else 0.0

    @property
    def mean_loss_ci_halfwidth(self) -> float:
        """95% CI half-width of the session mean loss (across trials)."""
        means = self.trial_mean_loss
        if means.size <= 1:
            return 0.0
        return float(1.96 * means.std(ddof=1) / np.sqrt(means.size))

    @property
    def fraction_meeting_threshold(self) -> float:
        if not self.demands:
            return 1.0
        return float(np.mean([d.meets_threshold_fraction for d in self.demands]))

    @property
    def mean_worst_window(self) -> float:
        if not self.demands:
            return 0.0
        return float(np.mean([d.mean_worst_window for d in self.demands]))

    def result_for(self, demand_key: tuple[str, str]) -> DemandReliability:
        for result in self.demands:
            if result.demand_key == demand_key:
                return result
        raise KeyError(f"no Monte-Carlo result for demand {demand_key}")

    def summary(self) -> dict:
        return {
            "num_packets": self.num_packets,
            "trials": self.trials,
            "num_demands": len(self.demands),
            "mean_loss": self.mean_loss,
            "mean_loss_ci95": self.mean_loss_ci_halfwidth,
            "max_loss": self.max_loss,
            "mean_worst_window_loss": self.mean_worst_window,
            "fraction_meeting_threshold": self.fraction_meeting_threshold,
        }


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def _bernoulli_row_bytes(p: np.ndarray, num_packets: int) -> np.ndarray:
    """Sampling bytes of one packed Bernoulli row per trial, at each probability.

    Lossy rows (p >= the sparse threshold) draw dense float64 uniforms; the
    rest draw ~gap-budget float32 exponentials plus position arrays.
    """
    budget = _gap_budget(num_packets * np.where(p > 0.0, p, 0.0)) * 5.0
    out = np.where(p >= _SPARSE_SAMPLING_THRESHOLD, float(num_packets * 10), budget)
    return np.where(p > 0.0, out, 0.0)


def row_trial_bytes(
    loss_model: LossModel, probabilities: np.ndarray, num_packets: int
) -> tuple[float, np.ndarray]:
    """The engines' one memory model: per-trial bytes of path-table rows.

    Returns ``(per_row, sampling)``: ``per_row`` bytes for each first-hop,
    path (counted twice) and demand row, plus ``sampling[i]`` bytes to draw
    a row at ``probabilities[i]``.  Bernoulli and Gilbert-Elliott rows stay
    packed; a Gilbert-Elliott row also holds its sojourn draws, its packed
    state mask and two Bernoulli rows.  Any other model materializes dense
    ``(rows, trials, packets)`` draws before packing.  The batched engine's
    trial chunking (:func:`estimate_trial_bytes`) and the streaming tile
    planner both derive from it; the Bernoulli figures are part of the
    batched determinism contract, since they fix the chunk boundaries.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    per_row = float((num_packets + 7) // 8 * 3 + 96)
    if type(loss_model) is BernoulliLossModel:
        return per_row, _bernoulli_row_bytes(p, num_packets)
    if type(loss_model) is GilbertElliottLossModel:
        loss_good, loss_bad = loss_model._chain_parameters(p)
        chain = 2.0 * per_row + 48.0 * loss_model._sojourn_budget(num_packets)
        return per_row, (
            chain
            + _bernoulli_row_bytes(loss_good, num_packets)
            + _bernoulli_row_bytes(loss_bad, num_packets)
        )
    return float(num_packets * 20), np.zeros(p.size)


def estimate_trial_bytes(table: PathTable, loss_model: LossModel, num_packets: int) -> float:
    """Approximate working-set bytes one trial of ``table`` needs (see :func:`row_trial_bytes`)."""
    per_row, sampling = row_trial_bytes(
        loss_model, np.concatenate([table.first_hop_loss, table.path_loss]), num_packets
    )
    rows = table.num_first_hops + 2 * table.num_paths + len(table.demand_keys)
    per_trial = float(rows * per_row)
    # Summed in row order: the chunk size depends on the exact value.
    for cost in sampling:
        per_trial += cost
    return float(per_trial)


def _chunk_trials(table: PathTable, config: MonteCarloConfig) -> list[int]:
    """Deterministic trial chunking under the working-set bound."""
    per_trial = estimate_trial_bytes(table, config.loss_model, config.num_packets)
    chunk = int(np.clip(config.max_batch_bytes // max(int(per_trial), 1), 1, config.trials))
    sizes = [chunk] * (config.trials // chunk)
    if config.trials % chunk:
        sizes.append(config.trials % chunk)
    return sizes


def slice_path_table(table: PathTable, start: int, stop: int) -> PathTable:
    """The sub-table covering demand rows ``[start, stop)`` of ``table``.

    Path rows stay in table order (they are contiguous per demand); first
    hops are restricted to the referenced subset with their relative order
    preserved, so running the engine on the slice consumes randomness exactly
    as a table compiled for those demands alone would.
    """
    if not 0 <= start <= stop <= len(table.demand_keys):
        raise IndexError(f"demand slice [{start}, {stop}) outside [0, {len(table.demand_keys)})")
    if start == stop:
        path_lo = path_hi = 0
    else:
        path_lo = int(table.demand_path_starts[start])
        path_hi = int(table.demand_path_starts[stop - 1] + table.demand_num_paths[stop - 1])
    path_first_hop = table.path_first_hop[path_lo:path_hi]
    used = np.unique(path_first_hop)
    remap = np.full(table.num_first_hops, -1, dtype=np.intp)
    remap[used] = np.arange(used.size, dtype=np.intp)
    new_first_hop = remap[path_first_hop]
    used_set = set(int(row) for row in used)
    return PathTable(
        demand_keys=table.demand_keys[start:stop],
        demand_thresholds=table.demand_thresholds[start:stop],
        demand_path_starts=table.demand_path_starts[start:stop] - path_lo,
        demand_num_paths=table.demand_num_paths[start:stop],
        first_hop_links=[table.first_hop_links[int(row)] for row in used],
        first_hop_loss=table.first_hop_loss[used],
        first_hop_profiles=[
            (int(remap[row]), hard, segments)
            for row, hard, segments in table.first_hop_profiles
            if row in used_set
        ],
        first_hop_path_rows=[
            np.flatnonzero(new_first_hop == index) for index in range(used.size)
        ],
        path_links=table.path_links[path_lo:path_hi],
        path_loss=table.path_loss[path_lo:path_hi],
        path_first_hop=new_first_hop,
        path_profiles=[
            (row - path_lo, hard, segments)
            for row, hard, segments in table.path_profiles
            if path_lo <= row < path_hi
        ],
    )


def _apply_packed_profiles(
    packed: np.ndarray,
    profiles: list[tuple[int, np.ndarray | None, list[tuple[int, int, float]]]],
    rng: np.random.Generator,
) -> None:
    """Overlay forced-loss profiles onto a packed ``(rows, trials, bytes)`` mask."""
    trials, num_bytes = packed.shape[1], packed.shape[2]
    for row, hard, segments in profiles:
        if segments:
            index_parts = []
            bit_parts = []
            for start, end, severity in segments:
                trial_idx, positions = sample_bernoulli_positions(
                    severity, trials, end - start, rng
                )
                positions = positions + start
                index_parts.append(trial_idx * num_bytes + (positions >> 3))
                bit_parts.append(np.left_shift(1, positions & 7))
            counts = np.bincount(
                np.concatenate(index_parts),
                weights=np.concatenate(bit_parts),
                minlength=trials * num_bytes,
            )
            packed[row] |= counts.astype(np.uint8).reshape(trials, num_bytes)
        if hard is not None:
            packed[row] |= hard[None, :]


def _window_counts_packed(
    all_lost: np.ndarray, num_packets: int, window: int
) -> np.ndarray:
    """Per-window lost-packet counts from a packed ``(..., bytes)`` mask."""
    num_windows = -(-num_packets // window)
    if window % 8 == 0:
        window_bytes = window // 8
        byte_pop = _popcount(all_lost)
        pad = num_windows * window_bytes - byte_pop.shape[-1]
        if pad:
            byte_pop = np.concatenate(
                [byte_pop, np.zeros((*byte_pop.shape[:-1], pad), dtype=np.uint8)],
                axis=-1,
            )
        folded = byte_pop.reshape(*byte_pop.shape[:-1], num_windows, window_bytes)
        return folded.sum(axis=-1, dtype=np.int64)
    dense = np.unpackbits(all_lost, axis=-1, count=num_packets, bitorder="little")
    pad = num_windows * window - num_packets
    if pad:
        dense = np.concatenate(
            [dense, np.zeros((*dense.shape[:-1], pad), dtype=np.uint8)], axis=-1
        )
    folded = dense.reshape(*dense.shape[:-1], num_windows, window)
    return folded.sum(axis=-1, dtype=np.int64)


def path_count_groups(table: PathTable) -> list[tuple[int, np.ndarray]]:
    """Demand rows grouped by path count (reconstruction-fold batches)."""
    return [
        (int(count), np.flatnonzero(table.demand_num_paths == count))
        for count in np.unique(table.demand_num_paths)
    ]


def simulate_trial_block(
    table: PathTable,
    loss_model: LossModel,
    chunk: int,
    num_packets: int,
    window: int,
    count_groups: list[tuple[int, np.ndarray]],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block of ``chunk`` trials over every demand of ``table``.

    The integer core of the batched engine, shared with the streaming tiles:
    returns ``(window_counts, loss_count, duplicates)`` as int64 arrays of
    shapes ``(served, chunk, windows)``, ``(served, chunk)``, ``(served,
    chunk)``.  Consumes randomness from ``rng`` in a fixed order (first-hop
    draws, first-hop profiles, path draws, path profiles).
    """
    served = len(table.demand_keys)
    starts = table.demand_path_starts
    fh_packed = loss_model.sample_packed_loss_matrix(
        table.first_hop_loss, chunk, num_packets, rng, links=table.first_hop_links
    )
    _apply_packed_profiles(fh_packed, table.first_hop_profiles, rng)
    lost = loss_model.sample_packed_loss_matrix(
        table.path_loss, chunk, num_packets, rng, links=table.path_links
    )
    _apply_packed_profiles(lost, table.path_profiles, rng)
    # A path loses a packet iff either hop lost it; the shared first-hop
    # draw is broadcast to every path served by that reflector.
    for index, rows in enumerate(table.first_hop_path_rows):
        lost[rows] |= fh_packed[index]
    # Per-path received counts feed the duplicate (redundancy) statistic.
    path_received = num_packets - _popcount(lost).sum(axis=2, dtype=np.int64)
    # Reconstruction: a packet survives iff any copy arrived, i.e. it is
    # lost iff every path of its demand lost it -- a bitwise-AND fold.
    all_lost = np.empty((served, chunk, lost.shape[2]), dtype=np.uint8)
    for count, rows in count_groups:
        fold = lost[starts[rows]]
        for offset in range(1, count):
            fold &= lost[starts[rows] + offset]
        all_lost[rows] = fold
    window_counts = _window_counts_packed(all_lost, num_packets, window)
    loss_count = window_counts.sum(axis=2)
    copies = np.add.reduceat(path_received, starts, axis=0)
    duplicates = copies - (num_packets - loss_count)
    return window_counts, loss_count, duplicates


def run_monte_carlo(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    config: MonteCarloConfig | None = None,
    rng: np.random.Generator | None = None,
    node_isp: dict[str, str | None] | None = None,
    table: PathTable | None = None,
) -> MonteCarloReport:
    """Run the batched Monte-Carlo simulation of ``solution`` on ``problem``.

    ``node_isp`` maps node names to ISP names for ISP-outage events; it
    defaults to the reflector colors recorded in the problem.

    ``table`` supplies a pre-compiled :class:`PathTable` (e.g. from the
    serving cache) and must come from :func:`compile_path_table` over the
    *same* ``(problem, solution, config.failures, config.num_packets,
    node_isp)`` -- the table is a pure function of those inputs, so a valid
    supplied table only skips the compile pass.
    """
    config = config or MonteCarloConfig()
    if node_isp is None:
        node_isp = {r: problem.color(r) for r in problem.reflectors}
    config.failures.validate_for_session(config.num_packets)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if table is None:
        table = compile_path_table(
            problem, solution, config.failures, config.num_packets, node_isp
        )
    num_packets = config.num_packets
    served = len(table.demand_keys)
    wsizes = np.diff(np.append(window_starts(num_packets, config.window), num_packets))
    # Demands grouped by path count: the reconstruction fold runs once per
    # distinct count on a fancy-indexed block instead of once per demand.
    count_groups = path_count_groups(table)
    loss_chunks: list[np.ndarray] = []
    worst_chunks: list[np.ndarray] = []
    dup_chunks: list[np.ndarray] = []

    for chunk in _chunk_trials(table, config) if served else []:
        window_counts, loss_count, duplicates = simulate_trial_block(
            table, config.loss_model, chunk, num_packets, config.window, count_groups, rng
        )
        loss_chunks.append(loss_count / num_packets)
        worst_chunks.append((window_counts / wsizes).max(axis=2))
        dup_chunks.append(duplicates)

    if served:
        loss = np.concatenate(loss_chunks, axis=1)
        worst = np.concatenate(worst_chunks, axis=1)
        duplicates = np.concatenate(dup_chunks, axis=1)
    else:
        loss = worst = duplicates = np.zeros((0, config.trials))
    by_key = {key: row for row, key in enumerate(table.demand_keys)}

    demands: list[DemandReliability] = []
    for demand in problem.demands:
        row = by_key.get(demand.key)
        if row is None:
            demands.append(
                DemandReliability(
                    demand_key=demand.key,
                    threshold=demand.success_threshold,
                    paths=0,
                    loss=np.ones(config.trials),
                    worst_window=np.ones(config.trials),
                    duplicates=np.zeros(config.trials, dtype=np.int64),
                )
            )
            continue
        demands.append(
            DemandReliability(
                demand_key=demand.key,
                threshold=demand.success_threshold,
                paths=int(table.demand_num_paths[row]),
                loss=loss[row],
                worst_window=worst[row],
                duplicates=duplicates[row].astype(np.int64),
            )
        )
    return MonteCarloReport(
        num_packets=num_packets,
        trials=config.trials,
        window=config.window,
        demands=demands,
    )

