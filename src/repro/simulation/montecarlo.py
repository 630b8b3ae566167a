"""Path tables and the packed trial kernel of the Monte-Carlo engine.

The engine itself -- :func:`repro.simulation.streaming.run_monte_carlo`, a
tiled fold -- lives in :mod:`repro.simulation.streaming`.  This module holds
what every tile runs:

* the (problem, solution) pair is compiled once into a :class:`PathTable` --
  flat arrays of first-hop links, per-path second-hop losses, forced-loss
  profiles, and boundaries grouping paths by demand --
  (:func:`compile_path_table`) and sliced per demand tile
  (:func:`slice_path_table`);
* :func:`simulate_trial_block` runs a block of trials over every demand of a
  table: per-link loss matrices are *bit-packed* (one uint8 byte per 8
  packets): Bernoulli links sample only the loss positions (geometric
  skip-sampling, :func:`~repro.network.loss.sample_bernoulli_positions`)
  OR-ed in as byte-index/bit pairs; Gilbert-Elliott links draw geometric
  state sojourns and pick each packet's bit from one of two such rows; other
  models pack a dense draw;
* the shared source->reflector draw is OR-broadcast onto its paths, and
  reconstruction is a bitwise-AND fold over each demand's path block (a
  packet is lost iff *every* copy lost it);
* loss counts and the worst-window statistic come from byte popcounts folded
  per window (non-byte-aligned windows unpack first);
* :func:`row_trial_bytes` is the one memory model: the tile planner sizes
  tiles under ``max_memory`` with it.
"""

from __future__ import annotations

from dataclasses import dataclass

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

if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    _popcount = np.bitwise_count
else:  # pragma: no cover - exercised only on old numpy
    _POPCOUNT_TABLE = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

    def _popcount(values: np.ndarray) -> np.ndarray:
        return _POPCOUNT_TABLE[values]


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
# The kernel
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
    """The engine's one memory model: per-trial bytes of path-table rows.

    Returns ``(per_row, sampling)``: ``per_row`` bytes for each first-hop,
    path (counted twice) and demand row, plus ``sampling[i]`` bytes to draw
    a row at ``probabilities[i]``.  Bernoulli and Gilbert-Elliott rows stay
    packed; a Gilbert-Elliott row also holds its sojourn draws, its packed
    state mask and two Bernoulli rows.  Any other model materializes dense
    ``(rows, trials, packets)`` draws before packing.  The tile planner
    (:func:`repro.simulation.streaming.resolve_tiling`) sizes tiles under
    ``max_memory`` with it, so runs with ``max_memory`` set depend on these
    figures.
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
    """Approximate working-set bytes one trial of ``table`` needs (see :func:`row_trial_bytes`).

    Kept for ``perfbench``'s audit-sweep workload, which reports it as
    ``sim.trial_bytes``; the engine sizes tiles with
    :func:`repro.simulation.streaming.resolve_tiling` instead.
    """
    per_row, sampling = row_trial_bytes(
        loss_model, np.concatenate([table.first_hop_loss, table.path_loss]), num_packets
    )
    rows = table.num_first_hops + 2 * table.num_paths + len(table.demand_keys)
    return float(rows * per_row + sampling.sum())


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

    The integer core every tile of the engine runs: returns ``(window_counts, loss_count, duplicates)`` as int64 arrays of
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
