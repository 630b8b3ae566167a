"""The Monte-Carlo reliability engine: a memory-bounded tiled fold.

:func:`run_monte_carlo` measures the loss each edgeserver sees after
reconstruction.  It tiles the ``(demands x trials)`` plane and folds
statistics tile by tile into exact accumulators, so peak memory is
one tile's working set plus per-demand sufficient statistics -- *flat in
the trial count*, which is what lets it audit million-demand instances:

* the compiled :class:`~repro.simulation.montecarlo.PathTable` is sliced
  per demand tile (:func:`~repro.simulation.montecarlo.slice_path_table`)
  and each tile runs the packed integer kernel
  (:func:`~repro.simulation.montecarlo.simulate_trial_block`);
* every tile draws from its own ``SeedSequence([seed, tile])`` stream, so
  tiles are self-contained: execution order, ``jobs``, and appending more
  trials never shift another tile's random-block layout;
* accumulators hold *exact integer sufficient statistics* (lost-packet
  counts and their squares, threshold hits, duplicate counts, worst-window
  numerators over a common denominator), so folding a tile's partial
  (``fold_partial``) is integer addition/maximum -- exact, associative,
  commutative -- and results are bit-identical no matter how tiles are
  scheduled;
* tiles fan out over :func:`repro.analysis.runner.execute_tasks_iter`, the
  same deterministic executor the bench scenarios use.

Determinism contract: a run is a pure function of ``(seed, trials,
num_packets, window, loss model, failures, effective tile grid)``.  The
grid is ``demand_tile x trial_tile`` (defaults ``1024 x 32``), shrunk
deterministically when ``max_memory`` is set (:func:`resolve_tiling`).

Worst-window statistics are folded as *scaled integers*: with window sizes
``b_w`` and ``L = lcm(b_w)``, the worst-window numerator
``max_w(count_w * L / b_w)`` is an exact int64, and because correctly
rounded float division is monotone, ``float(worst_scaled / L)`` equals
``max_w(count_w / b_w)`` bit for bit.

Trace-driven replay (:mod:`repro.simulation.traces`) rides the same fold:
a :class:`~repro.simulation.traces.LoadTrace` realizes per-demand session
windows once per run (independent of the tile grid), and each tile also
folds per-window active/lost/rebuffer counters restricted to the windows a
demand-session is live.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.network.loss import BernoulliLossModel, LossModel
from repro.simulation.failures import FailureSchedule
from repro.simulation.montecarlo import (
    PathTable,
    compile_path_table,
    path_count_groups,
    row_trial_bytes,
    simulate_trial_block,
    slice_path_table,
)
from repro.simulation.packets import window_starts
from repro.simulation.traces import (
    LoadTrace,
    SessionActivity,
    TraceContext,
    get_load_trace,
)

DEFAULT_DEMAND_TILE = 1024
DEFAULT_TRIAL_TILE = 32

# Trace session streams live far above any realistic tile index, so the
# per-tile ``SeedSequence([seed, tile])`` family and the per-trace
# ``SeedSequence([seed, _TRACE_STREAM_BASE + i])`` family never collide.
_TRACE_STREAM_BASE = 2**48


class StreamingMemoryError(ValueError):
    """The working-set bound cannot be met by any tile shape."""


@dataclass
class MonteCarloConfig:
    """Configuration of a Monte-Carlo reliability run.

    Attributes
    ----------
    num_packets:
        Packets per simulated session (one trial = one session).
    trials:
        Number of independent sessions.
    window:
        Window (in packets) of the worst-window loss statistic.  Multiples
        of 8 keep the kernel on its byte-aligned fast path.
    loss_model:
        Per-link loss process shared by all trials.
    failures:
        Injected failure schedule, identical across trials.
    seed:
        Seed of the run's random streams; the default is ``0``.  ``None``
        draws fresh entropy once per run (the report records the drawn
        seed, so the run can be repeated).
    demand_tile, trial_tile:
        The tile grid (defaults ``1024 x 32``).
    max_memory:
        Bound on one tile's estimated working set in bytes: the grid is
        shrunk deterministically (trial tile first, then demand tile) until
        it fits, and a :class:`StreamingMemoryError` is raised when even a
        single demand row at one trial cannot fit.
    loss_bins:
        Bins of the per-demand-trial loss histogram.
    rebuffer_loss:
        Per-window loss fraction at or above which an active session counts
        a rebuffer event (trace replay).

    Results are a pure function of ``(seed, trials, num_packets, window,
    loss model, failures, effective tile grid)`` -- never of ``jobs`` or
    scheduling order.
    """

    num_packets: int = 2000
    trials: int = 50
    window: int = 200
    loss_model: LossModel = field(default_factory=BernoulliLossModel)
    failures: FailureSchedule = field(default_factory=FailureSchedule)
    seed: int | None = 0
    demand_tile: int | None = None
    trial_tile: int | None = None
    max_memory: int | None = None
    loss_bins: int = 32
    rebuffer_loss: float = 0.1

    def __post_init__(self) -> None:
        if self.num_packets <= 0:
            raise ValueError("num_packets must be positive")
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.window <= 0:
            raise ValueError("window must be positive")
        for name in ("demand_tile", "trial_tile", "max_memory"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")
        if self.loss_bins <= 0:
            raise ValueError("loss_bins must be positive")
        if not 0.0 < self.rebuffer_loss <= 1.0:
            raise ValueError("rebuffer_loss must lie in (0, 1]")


# ---------------------------------------------------------------------------
# Exact helpers shared by tiles and the coordinator
# ---------------------------------------------------------------------------


def window_sizes(num_packets: int, window: int) -> np.ndarray:
    """Per-window packet counts (the last window may be a short tail)."""
    return np.diff(np.append(window_starts(num_packets, window), num_packets)).astype(np.int64)


def worst_window_scale(num_packets: int, window: int) -> tuple[int, np.ndarray]:
    """``(L, weights)`` with ``L = lcm(window sizes)`` and ``weights = L / b_w``.

    ``max_w(count_w * weights_w)`` is the worst-window statistic as an exact
    integer numerator over the common denominator ``L``.
    """
    sizes = window_sizes(num_packets, window)
    scale = math.lcm(*(int(size) for size in np.unique(sizes)))
    return scale, (scale // sizes).astype(np.int64)


def threshold_budget_counts(thresholds: np.ndarray, num_packets: int) -> np.ndarray:
    """Largest lost-packet count per demand that still meets its threshold.

    Matches the per-trial float semantics exactly: ``count <=
    budget_counts[d]`` iff ``float(count / num_packets) <= (1 - threshold) +
    1e-12`` (correctly rounded division is monotone in ``count``).
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    budget = (1.0 - thresholds) + 1e-12
    counts = np.clip(np.floor(budget * num_packets).astype(np.int64), 0, num_packets)
    for _ in range(4):
        over = (counts > 0) & ((counts / num_packets) > budget)
        counts[over] -= 1
        under = (counts < num_packets) & (((counts + 1) / num_packets) <= budget)
        counts[under] += 1
        if not (over.any() or under.any()):
            break
    return counts


def _loss_bin_indices(loss_count: np.ndarray, num_packets: int, bins: int) -> np.ndarray:
    """Exact integer bin of each loss count (uniform bins over [0, 1])."""
    return np.minimum(loss_count * bins // num_packets, bins - 1)


# ---------------------------------------------------------------------------
# Accumulators
# ---------------------------------------------------------------------------


@dataclass
class StreamingAccumulator:
    """Exact sufficient statistics of a Monte-Carlo run, folded tile by tile.

    All fields are int64; :meth:`fold_partial` is elementwise addition (and
    maximum for the ``*_max`` fields) over the tile's rows, which is exact,
    associative and commutative -- the reason tile order and ``--jobs`` can
    never change a result.
    """

    num_packets: int
    window: int
    worst_scale: int
    loss_bins: int
    trial_counts: np.ndarray
    loss_sum: np.ndarray
    loss_sq_sum: np.ndarray
    loss_max: np.ndarray
    meets: np.ndarray
    duplicates_sum: np.ndarray
    worst_sum: np.ndarray
    worst_max: np.ndarray
    loss_histogram: np.ndarray
    trial_loss_sum: np.ndarray

    @classmethod
    def zeros(
        cls, num_demands: int, trials: int, num_packets: int, window: int, loss_bins: int
    ) -> StreamingAccumulator:
        scale, _ = worst_window_scale(num_packets, window)
        shape = (num_demands,)
        return cls(
            num_packets=num_packets,
            window=window,
            worst_scale=scale,
            loss_bins=loss_bins,
            trial_counts=np.zeros(shape, dtype=np.int64),
            loss_sum=np.zeros(shape, dtype=np.int64),
            loss_sq_sum=np.zeros(shape, dtype=np.int64),
            loss_max=np.zeros(shape, dtype=np.int64),
            meets=np.zeros(shape, dtype=np.int64),
            duplicates_sum=np.zeros(shape, dtype=np.int64),
            worst_sum=np.zeros(shape, dtype=np.int64),
            worst_max=np.zeros(shape, dtype=np.int64),
            loss_histogram=np.zeros(loss_bins, dtype=np.int64),
            trial_loss_sum=np.zeros(trials, dtype=np.int64),
        )

    @property
    def num_demands(self) -> int:
        return int(self.loss_sum.size)

    def fold_partial(self, partial: dict) -> None:
        """Fold one tile's partial (demand rows ``[d0, d1)``, trials at t0)."""
        d0, d1 = partial["d0"], partial["d1"]
        t0 = partial["t0"]
        chunk = partial["chunk"]
        self.trial_counts[d0:d1] += chunk
        self.loss_sum[d0:d1] += partial["loss_sum"]
        self.loss_sq_sum[d0:d1] += partial["loss_sq_sum"]
        np.maximum(self.loss_max[d0:d1], partial["loss_max"], out=self.loss_max[d0:d1])
        self.meets[d0:d1] += partial["meets"]
        self.duplicates_sum[d0:d1] += partial["duplicates_sum"]
        self.worst_sum[d0:d1] += partial["worst_sum"]
        np.maximum(self.worst_max[d0:d1], partial["worst_max"], out=self.worst_max[d0:d1])
        self.loss_histogram += partial["loss_histogram"]
        self.trial_loss_sum[t0 : t0 + chunk] += partial["trial_loss_sum"]


@dataclass
class TraceAccumulator:
    """Per-window trace-replay counters (exact int64), folded tile by tile."""

    trace_name: str
    num_windows: int
    active_cells: np.ndarray
    lost_packets: np.ndarray
    rebuffer_cells: np.ndarray
    rebuffer_sessions: int

    @classmethod
    def zeros(cls, trace_name: str, num_windows: int) -> TraceAccumulator:
        return cls(
            trace_name=trace_name,
            num_windows=num_windows,
            active_cells=np.zeros(num_windows, dtype=np.int64),
            lost_packets=np.zeros(num_windows, dtype=np.int64),
            rebuffer_cells=np.zeros(num_windows, dtype=np.int64),
            rebuffer_sessions=0,
        )

    def fold_partial(self, partial: dict) -> None:
        self.active_cells += partial["active_cells"]
        self.lost_packets += partial["lost_packets"]
        self.rebuffer_cells += partial["rebuffer_cells"]
        self.rebuffer_sessions += int(partial["rebuffer_sessions"])


# ---------------------------------------------------------------------------
# Tile planning
# ---------------------------------------------------------------------------


def _per_demand_trial_bytes(
    table: PathTable, loss_model: LossModel, num_packets: int
) -> np.ndarray:
    """Approximate per-trial working-set bytes attributable to each demand.

    Derived from :func:`repro.simulation.montecarlo.row_trial_bytes`, with
    shared first-hop rows conservatively attributed to every path using
    them, so summing over a demand tile upper-bounds the tile's estimate
    (:func:`~repro.simulation.montecarlo.estimate_trial_bytes`).
    """
    per_row, path_sampling = row_trial_bytes(loss_model, table.path_loss, num_packets)
    _, first_hop_sampling = row_trial_bytes(loss_model, table.first_hop_loss, num_packets)
    per = (1.0 + 3.0 * table.demand_num_paths.astype(np.float64)) * per_row
    if table.num_paths:
        path_cost = path_sampling + first_hop_sampling[table.path_first_hop]
        per += np.add.reduceat(path_cost, table.demand_path_starts)
    return per


def resolve_tiling(table: PathTable, config: MonteCarloConfig) -> tuple[int, int]:
    """Effective ``(demand_tile, trial_tile)`` under the working-set bound.

    Deterministic: starts from the configured (or default) tile shape and
    halves the trial tile, then the demand tile, until the worst tile's
    estimated working set fits ``max_memory``.  Raises
    :class:`StreamingMemoryError` when even one demand row at one trial
    cannot fit.
    """
    served = len(table.demand_keys)
    demand_tile = max(1, min(config.demand_tile or DEFAULT_DEMAND_TILE, max(served, 1)))
    trial_tile = max(1, min(config.trial_tile or DEFAULT_TRIAL_TILE, config.trials))
    if config.max_memory is None or not served:
        return demand_tile, trial_tile
    per_demand = _per_demand_trial_bytes(table, config.loss_model, config.num_packets)
    while True:
        starts = np.arange(0, served, demand_tile)
        worst_tile = float(np.add.reduceat(per_demand, starts).max())
        if worst_tile * trial_tile <= config.max_memory:
            return demand_tile, trial_tile
        if trial_tile > 1:
            trial_tile = max(1, trial_tile // 2)
        elif demand_tile > 1:
            demand_tile = max(1, demand_tile // 2)
        else:
            row = int(np.argmax(per_demand))
            raise StreamingMemoryError(
                f"a single demand row cannot fit the working-set bound: demand "
                f"{table.demand_keys[row]} needs ~{int(per_demand[row])} bytes for "
                f"one trial, max_memory={config.max_memory}; raise --max-memory "
                f"(or shrink --packets)"
            )


@dataclass(frozen=True)
class TilePlan:
    """The fixed tile grid of one run (part of the determinism contract)."""

    demand_tile: int
    trial_tile: int
    demand_ranges: tuple[tuple[int, int], ...]
    trial_offsets: tuple[tuple[int, int], ...]

    @property
    def num_tiles(self) -> int:
        return len(self.demand_ranges) * len(self.trial_offsets)


def plan_tiles(table: PathTable, config: MonteCarloConfig) -> TilePlan:
    """Tile the ``(served demands x trials)`` plane for ``config``."""
    demand_tile, trial_tile = resolve_tiling(table, config)
    served = len(table.demand_keys)
    demand_ranges = tuple(
        (start, min(start + demand_tile, served)) for start in range(0, served, demand_tile)
    )
    trial_offsets = tuple(
        (start, min(start + trial_tile, config.trials) - start)
        for start in range(0, config.trials, trial_tile)
    )
    return TilePlan(
        demand_tile=demand_tile,
        trial_tile=trial_tile,
        demand_ranges=demand_ranges,
        trial_offsets=trial_offsets,
    )


# ---------------------------------------------------------------------------
# The tile worker
# ---------------------------------------------------------------------------


def _streaming_tile_task(task: dict) -> dict:
    """Simulate one tile and reduce it to its exact partial statistics.

    Module-level and pure in ``task`` so :func:`execute_tasks` can run it
    in worker processes; the tile's generator derives from
    ``SeedSequence([seed, tile])``, nothing else.
    """
    table: PathTable = task["table"]
    chunk: int = task["chunk"]
    num_packets: int = task["num_packets"]
    bins: int = task["loss_bins"]
    weights: np.ndarray = task["worst_weights"]
    rng = np.random.default_rng(np.random.SeedSequence([task["seed"], task["tile"]]))
    window_counts, loss_count, duplicates = simulate_trial_block(
        table,
        task["loss_model"],
        chunk,
        num_packets,
        task["window"],
        path_count_groups(table),
        rng,
    )
    worst_scaled = (window_counts * weights).max(axis=2)
    budget = task["budget_counts"]
    partial = {
        "tile": task["tile"],
        "d0": task["d0"],
        "d1": task["d1"],
        "t0": task["t0"],
        "chunk": chunk,
        "loss_sum": loss_count.sum(axis=1),
        "loss_sq_sum": (loss_count * loss_count).sum(axis=1),
        "loss_max": loss_count.max(axis=1),
        "meets": (loss_count <= budget[:, None]).sum(axis=1),
        "duplicates_sum": duplicates.sum(axis=1),
        "worst_sum": worst_scaled.sum(axis=1),
        "worst_max": worst_scaled.max(axis=1),
        "loss_histogram": np.bincount(
            _loss_bin_indices(loss_count, num_packets, bins).ravel(), minlength=bins
        ).astype(np.int64),
        "trial_loss_sum": loss_count.sum(axis=0),
    }
    traces = []
    for arrival, departure, rebuffer_min in task["traces"]:
        windows = np.arange(window_counts.shape[2], dtype=np.int64)
        mask = (windows >= arrival[:, None]) & (windows < departure[:, None])
        active = mask[:, None, :]
        rebuffering = (window_counts >= rebuffer_min) & active
        traces.append(
            {
                "active_cells": mask.sum(axis=0, dtype=np.int64) * chunk,
                "lost_packets": np.where(active, window_counts, 0).sum(
                    axis=(0, 1), dtype=np.int64
                ),
                "rebuffer_cells": rebuffering.sum(axis=(0, 1), dtype=np.int64),
                "rebuffer_sessions": int(rebuffering.any(axis=2).sum()),
            }
        )
    partial["traces"] = traces
    return partial


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class TraceReport:
    """Per-window trace-replay outcome of one Monte-Carlo run."""

    trace_name: str
    description: str
    trials: int
    num_demands: int
    window_sizes: np.ndarray
    rebuffer_min: np.ndarray
    activity: SessionActivity
    accumulator: TraceAccumulator

    @property
    def num_windows(self) -> int:
        return self.accumulator.num_windows

    @property
    def active_sessions(self) -> np.ndarray:
        """Mean active demand-sessions per window (across trials)."""
        return self.accumulator.active_cells / max(self.trials, 1)

    @property
    def window_loss_rate(self) -> np.ndarray:
        """Loss rate inside each window, over active sessions only."""
        packets = self.accumulator.active_cells * self.window_sizes
        return np.divide(
            self.accumulator.lost_packets,
            packets,
            out=np.zeros(self.num_windows, dtype=np.float64),
            where=packets > 0,
        )

    @property
    def rebuffer_fraction(self) -> np.ndarray:
        """Fraction of active sessions rebuffering, per window."""
        return np.divide(
            self.accumulator.rebuffer_cells,
            self.accumulator.active_cells,
            out=np.zeros(self.num_windows, dtype=np.float64),
            where=self.accumulator.active_cells > 0,
        )

    @property
    def rebuffer_session_fraction(self) -> float:
        """Fraction of demand-sessions hitting >= 1 rebuffer while active."""
        cells = self.num_demands * self.trials
        return self.accumulator.rebuffer_sessions / cells if cells else 0.0

    def rows(self) -> list[dict]:
        return [
            {
                "window": w,
                "active_sessions": float(self.active_sessions[w]),
                "loss_rate": float(self.window_loss_rate[w]),
                "rebuffer_fraction": float(self.rebuffer_fraction[w]),
            }
            for w in range(self.num_windows)
        ]

    def summary(self) -> dict:
        loss = self.window_loss_rate
        return {
            "trace": self.trace_name,
            "num_windows": self.num_windows,
            "peak_active_sessions": float(self.active_sessions.max(initial=0.0)),
            "peak_window_loss": float(loss.max(initial=0.0)),
            "mean_window_loss": float(loss.mean()) if loss.size else 0.0,
            "rebuffer_session_fraction": self.rebuffer_session_fraction,
            "total_rebuffer_events": int(self.accumulator.rebuffer_cells.sum()),
        }


@dataclass
class MonteCarloReport:
    """Aggregate + per-demand results of a Monte-Carlo run.

    ``demand_keys`` lists served demands first (table order), then unserved
    demands (which count as total loss).  Per-demand floats derive lazily
    from the accumulator's exact integers; ``worst_window_max`` equals the
    maximum of the per-trial worst-window fractions bit for bit (see the
    module docstring).  ``seed`` is the seed the run used (the drawn one
    when the config's seed was ``None``).
    """

    num_packets: int
    trials: int
    window: int
    seed: int
    plan: TilePlan
    demand_keys: list[tuple[str, str]]
    thresholds: np.ndarray
    paths: np.ndarray
    accumulator: StreamingAccumulator
    traces: dict[str, TraceReport]

    @property
    def num_demands(self) -> int:
        return len(self.demand_keys)

    @property
    def mean_loss_per_demand(self) -> np.ndarray:
        return self.accumulator.loss_sum / (self.trials * self.num_packets)

    def loss_std(self, row: int) -> float:
        """Sample standard deviation (``ddof=1``) of demand ``row``'s per-trial loss.

        ``trials * loss_sq_sum - loss_sum**2`` is formed exactly in Python
        integers, so only the final division, square root and scaling round;
        ``0`` for one trial.
        """
        n = self.trials
        if n <= 1:
            return 0.0
        total = int(self.accumulator.loss_sum[row])
        spread = n * int(self.accumulator.loss_sq_sum[row]) - total * total
        return math.sqrt(spread / (n * (n - 1))) / self.num_packets

    @property
    def max_loss_per_demand(self) -> np.ndarray:
        return self.accumulator.loss_max / self.num_packets

    @property
    def meets_threshold_fraction(self) -> np.ndarray:
        return self.accumulator.meets / self.trials

    @property
    def mean_worst_window_per_demand(self) -> np.ndarray:
        return self.accumulator.worst_sum / (self.trials * self.accumulator.worst_scale)

    @property
    def worst_window_max(self) -> np.ndarray:
        return self.accumulator.worst_max / self.accumulator.worst_scale

    @property
    def mean_loss(self) -> float:
        cells = self.num_demands * self.trials * self.num_packets
        return float(self.accumulator.loss_sum.sum()) / cells if cells else 0.0

    @property
    def max_loss(self) -> float:
        if not self.num_demands:
            return 0.0
        return float(self.accumulator.loss_max.max()) / self.num_packets

    @property
    def fraction_meeting_threshold(self) -> float:
        cells = self.num_demands * self.trials
        return float(self.accumulator.meets.sum()) / cells if cells else 1.0

    @property
    def mean_worst_window(self) -> float:
        cells = self.num_demands * self.trials * self.accumulator.worst_scale
        return float(self.accumulator.worst_sum.sum()) / cells if cells else 0.0

    @property
    def trial_mean_loss(self) -> np.ndarray:
        cells = self.num_demands * self.num_packets
        if not cells:
            return np.zeros(self.trials)
        return self.accumulator.trial_loss_sum / cells

    @property
    def mean_loss_ci_halfwidth(self) -> float:
        means = self.trial_mean_loss
        if means.size <= 1:
            return 0.0
        return float(1.96 * means.std(ddof=1) / np.sqrt(means.size))

    def demand_index(self, demand_key: tuple[str, str]) -> int:
        try:
            return self.demand_keys.index(demand_key)
        except ValueError:
            raise KeyError(f"no Monte-Carlo result for demand {demand_key}") from None

    def summary(self) -> dict:
        return {
            "num_packets": self.num_packets,
            "trials": self.trials,
            "num_demands": self.num_demands,
            "mean_loss": self.mean_loss,
            "mean_loss_ci95": self.mean_loss_ci_halfwidth,
            "max_loss": self.max_loss,
            "mean_worst_window_loss": self.mean_worst_window,
            "fraction_meeting_threshold": self.fraction_meeting_threshold,
            "num_tiles": self.plan.num_tiles,
            "demand_tile": self.plan.demand_tile,
            "trial_tile": self.plan.trial_tile,
        }


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


def _resolve_traces(traces: Sequence[LoadTrace | str]) -> list[LoadTrace]:
    resolved = []
    for trace in traces:
        resolved.append(get_load_trace(trace) if isinstance(trace, str) else trace)
    return resolved


def _build_tile_tasks(
    table: PathTable,
    config: MonteCarloConfig,
    plan: TilePlan,
    budget_counts: np.ndarray,
    worst_weights: np.ndarray,
    activities: list[SessionActivity],
    rebuffer_min: np.ndarray,
) -> list[dict]:
    """All tile tasks, row-major over (demand tile, trial tile).

    The tile index -- the only thing a tile's random stream depends on -- is
    ``demand_tile_index * num_trial_tiles + trial_tile_index``.
    """
    tasks: list[dict] = []
    num_trial_tiles = len(plan.trial_offsets)
    for di, (d0, d1) in enumerate(plan.demand_ranges):
        subtable = slice_path_table(table, d0, d1)
        tile_traces = [
            (activity.arrival[d0:d1], activity.departure[d0:d1], rebuffer_min)
            for activity in activities
        ]
        for ti, (t0, chunk) in enumerate(plan.trial_offsets):
            tasks.append(
                {
                    "tile": di * num_trial_tiles + ti,
                    "seed": config.seed,
                    "d0": d0,
                    "d1": d1,
                    "t0": t0,
                    "chunk": chunk,
                    "table": subtable,
                    "loss_model": config.loss_model,
                    "num_packets": config.num_packets,
                    "window": config.window,
                    "budget_counts": budget_counts[d0:d1],
                    "worst_weights": worst_weights,
                    "loss_bins": config.loss_bins,
                    "traces": tile_traces,
                }
            )
    return tasks


def _fold_unserved(
    accumulator: StreamingAccumulator,
    trace_accumulators: list[TraceAccumulator],
    activities: list[SessionActivity],
    rebuffer_min: np.ndarray,
    wsizes: np.ndarray,
    budget_counts: np.ndarray,
    served: int,
    trials: int,
) -> None:
    """Analytic fold of unserved demands (total loss in every trial/window)."""
    num = accumulator.num_demands - served
    if num <= 0:
        return
    num_packets = accumulator.num_packets
    scale = accumulator.worst_scale
    rows = slice(served, None)
    accumulator.trial_counts[rows] += trials
    accumulator.loss_sum[rows] += trials * num_packets
    accumulator.loss_sq_sum[rows] += trials * num_packets * num_packets
    np.maximum(accumulator.loss_max[rows], num_packets, out=accumulator.loss_max[rows])
    # count == num_packets meets iff the budget allows total loss.
    accumulator.meets[rows] += np.where(budget_counts[rows] >= num_packets, trials, 0)
    accumulator.worst_sum[rows] += trials * scale
    np.maximum(accumulator.worst_max[rows], scale, out=accumulator.worst_max[rows])
    top_bin = int(_loss_bin_indices(np.asarray([num_packets]), num_packets, accumulator.loss_bins)[0])
    accumulator.loss_histogram[top_bin] += num * trials
    accumulator.trial_loss_sum += num * num_packets
    for trace_acc, activity in zip(trace_accumulators, activities):
        delta = np.zeros(trace_acc.num_windows + 1, dtype=np.int64)
        np.add.at(delta, activity.arrival[served:], 1)
        np.add.at(delta, activity.departure[served:], -1)
        active = np.cumsum(delta[:-1])
        trace_acc.active_cells += active * trials
        trace_acc.lost_packets += active * trials * wsizes
        # Total loss in a window always reaches the rebuffer bar.
        trace_acc.rebuffer_cells += active * trials
        trace_acc.rebuffer_sessions += num * trials


def run_monte_carlo(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    config: MonteCarloConfig | None = None,
    *,
    node_isp: dict[str, str | None] | None = None,
    table: PathTable | None = None,
    traces: Sequence[LoadTrace | str] = (),
    jobs: int | str | None = 1,
) -> MonteCarloReport:
    """Simulate ``solution`` on ``problem`` with the tiled Monte-Carlo fold.

    ``node_isp`` maps node names to ISP names for ISP-outage events; it
    defaults to the reflector colors recorded in the problem.  ``table``
    supplies a pre-compiled :class:`~repro.simulation.montecarlo.PathTable`
    and must come from
    :func:`~repro.simulation.montecarlo.compile_path_table` over the *same*
    ``(problem, solution, config.failures, config.num_packets, node_isp)``
    -- a valid supplied table only skips the compile pass.

    ``traces`` names :class:`~repro.simulation.traces.LoadTrace` entries (or
    passes instances) to replay through the same fold; each gets its own
    :class:`TraceReport` in the result.  ``jobs`` fans tiles out over
    :func:`repro.analysis.runner.execute_tasks_iter` and never changes
    results.
    """
    from repro.analysis.runner import execute_tasks_iter

    config = config or MonteCarloConfig()
    if config.seed is None:
        config = replace(config, seed=int(np.random.SeedSequence().entropy))
    if node_isp is None:
        node_isp = {r: problem.color(r) for r in problem.reflectors}
    config.failures.validate_for_session(config.num_packets)
    if table is None:
        table = compile_path_table(
            problem, solution, config.failures, config.num_packets, node_isp
        )
    load_traces = _resolve_traces(traces)
    served = len(table.demand_keys)
    wsizes = window_sizes(config.num_packets, config.window)
    scale, worst_weights = worst_window_scale(config.num_packets, config.window)
    rebuffer_min = np.maximum(np.ceil(config.rebuffer_loss * wsizes).astype(np.int64), 1)

    by_key = {key: row for row, key in enumerate(table.demand_keys)}
    unserved = [demand for demand in problem.demands if demand.key not in by_key]
    demand_keys = list(table.demand_keys) + [demand.key for demand in unserved]
    thresholds = np.concatenate(
        [
            table.demand_thresholds,
            np.asarray([demand.success_threshold for demand in unserved], dtype=np.float64),
        ]
    )
    paths = np.concatenate(
        [table.demand_num_paths, np.zeros(len(unserved), dtype=np.int64)]
    ).astype(np.int64)
    budget_counts = threshold_budget_counts(thresholds, config.num_packets)

    # Session activity is realized once per trace over the *full* demand
    # order, from its own stream -- independent of the tile grid.
    activities = [
        trace.realize(
            TraceContext(
                demand_keys=demand_keys,
                num_windows=int(wsizes.size),
                rng=np.random.default_rng(
                    np.random.SeedSequence([config.seed, _TRACE_STREAM_BASE + index])
                ),
            )
        )
        for index, trace in enumerate(load_traces)
    ]
    for trace, activity in zip(load_traces, activities):
        if activity.num_demands != len(demand_keys) or activity.num_windows != wsizes.size:
            raise ValueError(f"trace {trace.name!r} realized the wrong activity shape")

    plan = plan_tiles(table, config)
    accumulator = StreamingAccumulator.zeros(
        len(demand_keys), config.trials, config.num_packets, config.window, config.loss_bins
    )
    trace_accumulators = [
        TraceAccumulator.zeros(trace.name, int(wsizes.size)) for trace in load_traces
    ]
    if served:
        tasks = _build_tile_tasks(
            table, config, plan, budget_counts, worst_weights, activities, rebuffer_min
        )
        # Lazy, task-ordered consumption: each tile's partial is folded and
        # released before the next is held, keeping coordinator memory flat
        # in the tile count (execute_tasks would materialize every partial).
        for partial in execute_tasks_iter(_streaming_tile_task, tasks, jobs=jobs):
            accumulator.fold_partial(partial)
            for trace_acc, trace_partial in zip(trace_accumulators, partial["traces"]):
                trace_acc.fold_partial(trace_partial)
    _fold_unserved(
        accumulator,
        trace_accumulators,
        activities,
        rebuffer_min,
        wsizes,
        budget_counts,
        served,
        config.trials,
    )
    trace_reports = {
        trace.name: TraceReport(
            trace_name=trace.name,
            description=trace.description,
            trials=config.trials,
            num_demands=len(demand_keys),
            window_sizes=wsizes,
            rebuffer_min=rebuffer_min,
            activity=activity,
            accumulator=trace_acc,
        )
        for trace, activity, trace_acc in zip(load_traces, activities, trace_accumulators)
    }
    return MonteCarloReport(
        num_packets=config.num_packets,
        trials=config.trials,
        window=config.window,
        seed=config.seed,
        plan=plan,
        demand_keys=demand_keys,
        thresholds=thresholds,
        paths=paths,
        accumulator=accumulator,
        traces=trace_reports,
    )


#: Kept for ``perfbench``'s audit-sweep workload, which patches this name.
run_streaming_monte_carlo = run_monte_carlo
