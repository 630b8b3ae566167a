"""Diurnal load traces: arrival/departure processes over demand-sessions.

The paper's object of study is *live streaming*: demands are viewers that
join and leave, and the quantity that matters operationally is not only the
whole-session loss rate but what happens inside the windows a viewer is
actually watching -- a loss burst at peak hour hits the full diurnal crest
of the audience, the same burst at 4am almost nobody.

A :class:`LoadTrace` turns the static demand set of an
:class:`~repro.core.problem.OverlayDesignProblem` into *sessions*: for every
demand it realizes an ``(arrival, departure)`` pair in worst-window units
over one simulated day.  The realization is sampled once per run from its
own ``SeedSequence``-derived stream, *independent of the tile grid*, so the
engine's trace replay is as tiling-immune as the loss fold itself.

Traces are registered by name (the catalogue mirrors
:mod:`repro.simulation.scenarios`); ``repro simulate --trace NAME``
and :class:`repro.api.EvaluationSpec` resolve them here.  Workload-specific
traces (e.g. the metro-timezone-aware ``metro-diurnal`` of
:mod:`repro.workloads.session_traces`) register themselves on import and are
pulled in lazily by :func:`load_trace_names`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SessionActivity:
    """Realized sessions: per-demand active window ranges.

    ``arrival`` is the first active window, ``departure`` the first inactive
    one (exclusive); every demand is active for at least one window.
    """

    arrival: np.ndarray
    departure: np.ndarray
    num_windows: int

    def __post_init__(self) -> None:
        arrival = np.asarray(self.arrival, dtype=np.int64)
        departure = np.asarray(self.departure, dtype=np.int64)
        object.__setattr__(self, "arrival", arrival)
        object.__setattr__(self, "departure", departure)
        if arrival.shape != departure.shape:
            raise ValueError("arrival and departure must have the same shape")
        if arrival.size:
            if arrival.min() < 0 or departure.max() > self.num_windows:
                raise ValueError("session windows outside [0, num_windows)")
            if np.any(departure <= arrival):
                raise ValueError("every session must span at least one window")

    @property
    def num_demands(self) -> int:
        return int(self.arrival.size)


@dataclass(frozen=True)
class TraceContext:
    """Everything a trace realization may condition on."""

    demand_keys: Sequence[tuple[str, str]]
    num_windows: int
    rng: np.random.Generator

    @property
    def num_demands(self) -> int:
        return len(self.demand_keys)


@dataclass(frozen=True)
class LoadTrace:
    """A named arrival/departure process over the demand set."""

    name: str
    description: str
    realize: Callable[[TraceContext], SessionActivity]


def sample_sessions(
    context: TraceContext,
    intensity: np.ndarray,
    mean_windows: float,
    phase_offsets: np.ndarray | None = None,
) -> SessionActivity:
    """Sample sessions from an arrival-intensity curve.

    Arrivals are categorical over ``intensity`` (any nonnegative curve over
    the windows of the day); session lengths are geometric with mean
    ``mean_windows``; sessions truncate at the end of the day.
    ``phase_offsets`` (per-demand, in windows) rotate each demand's arrival
    around the day -- how the metro-timezone trace spreads the crest.
    """
    num_windows = context.num_windows
    num_demands = context.num_demands
    weights = np.asarray(intensity, dtype=np.float64)
    if weights.shape != (num_windows,) or weights.min() < 0 or weights.sum() <= 0:
        raise ValueError("intensity must be a nonnegative curve over the day's windows")
    arrival = context.rng.choice(num_windows, size=num_demands, p=weights / weights.sum())
    arrival = arrival.astype(np.int64)
    if phase_offsets is not None:
        arrival = (arrival + np.asarray(phase_offsets, dtype=np.int64)) % num_windows
    mean_windows = max(float(mean_windows), 1.0)
    lengths = context.rng.geometric(p=min(1.0, 1.0 / mean_windows), size=num_demands)
    departure = np.minimum(arrival + np.maximum(lengths.astype(np.int64), 1), num_windows)
    return SessionActivity(arrival=arrival, departure=departure, num_windows=num_windows)


def diurnal_intensity(
    num_windows: int, peak_phase: float = 0.75, amplitude: float = 0.85
) -> np.ndarray:
    """One-day sinusoidal load curve peaking at ``peak_phase`` of the day."""
    phase = np.arange(num_windows, dtype=np.float64) / max(num_windows, 1)
    return 1.0 + amplitude * np.cos(2.0 * np.pi * (phase - peak_phase))


def flash_crowd_intensity(num_windows: int) -> np.ndarray:
    """A quiet diurnal base plus a sharp synchronized join spike.

    The "everyone tunes in for the event" curve: most arrivals land inside a
    narrow Gaussian spike at 60% of the day (the paper's MacWorld-2002
    motivation).  Shared by the ``flash-crowd`` load trace and the scenario
    DSL's ``traffic-overlay`` primitive, so both stress the same audience
    shape.
    """
    phase = np.arange(num_windows, dtype=np.float64) / max(num_windows, 1)
    base = 0.25 * diurnal_intensity(num_windows)
    spike = 6.0 * np.exp(-0.5 * ((phase - 0.6) / 0.03) ** 2)
    return base + spike


# --------------------------------------------------------------- the registry

LOAD_TRACES: dict[str, LoadTrace] = {}


def register_load_trace(trace: LoadTrace) -> LoadTrace:
    if trace.name in LOAD_TRACES:
        raise ValueError(f"load trace {trace.name!r} already registered")
    LOAD_TRACES[trace.name] = trace
    return trace


def _ensure_workload_traces() -> None:
    # Lazy: repro.workloads imports this module, so the workload-specific
    # traces register via a deferred import instead of a cycle.
    import repro.workloads.session_traces  # noqa: F401


def get_load_trace(name: str) -> LoadTrace:
    _ensure_workload_traces()
    try:
        return LOAD_TRACES[name]
    except KeyError:
        known = ", ".join(sorted(LOAD_TRACES))
        raise KeyError(f"unknown load trace {name!r} (known: {known})") from None


def load_trace_names() -> list[str]:
    _ensure_workload_traces()
    return sorted(LOAD_TRACES)


def _realize_diurnal(context: TraceContext) -> SessionActivity:
    intensity = diurnal_intensity(context.num_windows)
    return sample_sessions(context, intensity, mean_windows=context.num_windows / 6.0)


def _realize_flash_crowd(context: TraceContext) -> SessionActivity:
    intensity = flash_crowd_intensity(context.num_windows)
    return sample_sessions(context, intensity, mean_windows=context.num_windows / 10.0)


register_load_trace(
    LoadTrace(
        name="diurnal",
        description="sinusoidal one-day load curve, evening peak, long sessions",
        realize=_realize_diurnal,
    )
)
register_load_trace(
    LoadTrace(
        name="flash-crowd",
        description="quiet diurnal base plus a sharp synchronized join spike",
        realize=_realize_flash_crowd,
    )
)
