"""Shared pieces of the benchmark: run context, spans, statistics, results.

Everything here is benchmark-side.  The program under test (``repro``) is
only ever called through its public functions; spans are recorded around
those calls by the workload modules, kept in memory, and written out when
the run ends.
"""

from __future__ import annotations

import gc
import json
import math
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np


# ---------------------------------------------------------------------------
# Run context
# ---------------------------------------------------------------------------


@dataclass
class RunContext:
    """What one invocation of the benchmark was asked to do."""

    seed: int
    seconds: float
    trace: bool

    def child_seed(self, *path: int) -> int:
        """A 31-bit seed derived from the workload seed and ``path``."""
        state = np.random.SeedSequence([self.seed, *path]).generate_state(1)[0]
        return int(state % (2**31))

    def rng(self, *path: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *path])


@dataclass
class Outcome:
    """What a workload measured: counts, metrics, and failed checks.

    ``metrics`` maps a metric name to ``(value, sample count)``; units come
    from ``BENCHMARK.json``.  ``gate_failures`` are correctness-gate
    violations (counted in ``failed``); ``replay_failures`` are traced
    replays that disagreed with the untraced run.  Either fails the command.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    report: dict[str, tuple[float, int]] = field(default_factory=dict)
    gate_failures: list[str] = field(default_factory=list)
    replay_failures: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)

    def gate(self, ok: bool, message: str) -> bool:
        """Record one correctness check of one operation."""
        if not ok:
            self.gate_failures.append(message)
        return ok

    def replay(self, ok: bool, message: str) -> None:
        if not ok:
            self.replay_failures.append(message)

    def put(self, name: str, value: float, count: int) -> None:
        self.metrics[name] = (float(value), int(count))

    def note(self, name: str, value: float, count: int) -> None:
        """A figure printed for readers but not part of the result line."""
        self.report[name] = (float(value), int(count))


# ---------------------------------------------------------------------------
# Host-normalized timing
# ---------------------------------------------------------------------------

#: Seconds one calibration unit takes on the reference host.
CALIBRATION_S = 0.04


_UNIT_SIZE = 1_000_000
_UNIT_RNG = np.random.default_rng(0)
#: Values, gather indices and output of the calibration unit (24 MiB).
_UNIT_BUFFERS = (
    _UNIT_RNG.random(_UNIT_SIZE),
    _UNIT_RNG.integers(0, _UNIT_SIZE, _UNIT_SIZE),
    np.empty(_UNIT_SIZE),
)


def calibration_unit() -> None:
    """Fixed work: a memory-bound numpy gather and scan over 24 MiB.

    Of the units tried against repeated identical designs and sweeps, this
    one tracked both best; interpreter loops varied on their own, by more
    than the operations they were meant to scale.  The buffers are
    allocated once, so page faults and the allocator state an operation
    leaves behind do not enter the unit's time.
    """
    values, index, out = _UNIT_BUFFERS
    np.take(values, index, out=out)
    np.cumsum(out, out=out)
    np.mod(out, 1.0, out=out)


def unit_seconds() -> float:
    """Wall seconds of one calibration unit, run now.

    The collector is off meanwhile: a collection over the heap an operation
    left behind would time the heap, not the host.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_unit()
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostClock:
    """Times operations in host-normalized seconds.

    Shared machines change speed by up to half for seconds at a time (other
    tenants on the same cores), which swamps a change in the program.  Each
    operation is timed between two calibration units and its wall seconds
    are scaled by ``CALIBRATION_S`` over the mean of the two unit times: the
    seconds it would take on a host where a unit takes ``CALIBRATION_S``.
    ``raw`` keeps the wall seconds.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.normalized: list[float] = []
        self.units: list[float] = []
        self._unit = unit_seconds()

    def time(self, call: Callable[[], Any]) -> Any:
        """Run ``call()``, record its seconds, and return its result."""
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        after = unit_seconds()
        unit = (self._unit + after) / 2
        self.raw.append(seconds)
        self.units.append(unit)
        self.normalized.append(seconds * CALIBRATION_S / unit)
        self._unit = after
        return result


def timed_setup(count: int, build: Callable[[int], Any]) -> tuple[list[Any], HostClock]:
    """Run ``build(i)`` for ``i < count``; return the products and their clock."""
    clock = HostClock()
    return [clock.time(lambda: build(index)) for index in range(count)], clock


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def put_times(outcome: Outcome, setup: HostClock, ops: HostClock | None = None) -> None:
    """``setup_s`` and, for a closed loop, the per-operation metrics.

    Gated figures are host-normalized; the wall-clock ones are printed.
    """
    outcome.put("setup_s", median(setup.normalized), len(setup.normalized))
    outcome.note("raw.setup_s", median(setup.raw), len(setup.raw))
    if ops is None:
        return
    times = ops.normalized
    outcome.put("op_p50_s", median(times), len(times))
    outcome.put("op_mean_s", float(np.mean(times)), len(times))
    outcome.note("op_p90_s", percentile(times, 90), len(times))
    outcome.note("raw.op_p50_s", median(ops.raw), len(ops.raw))
    outcome.note("host.unit_s_p50", median(ops.units), len(ops.units))


def loglog_exponent(sizes: list[float], seconds: list[float]) -> float:
    """Least-squares slope of ``log(seconds)`` against ``log(sizes)``."""
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.maximum(np.asarray(seconds, dtype=float), 1e-9))
    slope, _intercept = np.polyfit(x, y, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    op: str | None
    parent: int | None
    index: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder (name, start, end, parent, operation id).

    Spans nest per thread: a span opened while another is open on the same
    thread becomes its child and inherits its operation id.  ``record`` adds
    a span measured elsewhere (e.g. the time a request sat in a queue).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, start: float, end: float, op: str | None,
             parent: int | None) -> Span:
        with self._lock:
            span = Span(name, start, end, op, parent, len(self.spans))
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[dict]:
        """Time the enclosed block; ``handle["name"]`` may rename it."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        handle = {"name": name}
        # Placeholder so children can point at this span while it is open.
        span = self._add(name, time.perf_counter(), math.nan, op,
                         parent.index if parent else None)
        stack.append(span)
        try:
            yield handle
        finally:
            span.end = time.perf_counter()
            span.name = handle["name"]
            stack.pop()

    def record(self, name: str, start: float, end: float, op: str | None,
               parent: int | None = None) -> Span:
        return self._add(name, start, end, op, parent)

    def close_op(self, op: str, start: float, end: float) -> Span:
        """Add the root span of ``op`` after the fact and adopt its orphans.

        For operations whose layers run on several threads (a request
        submitted on one thread and executed on another), the layer spans
        are recorded first without a parent; this ties them to one root.
        """
        root = self._add("op", start, end, op, None)
        with self._lock:
            for span in self.spans:
                if span.op == op and span.parent is None and span is not root:
                    span.parent = root.index
        return root

    # -- analysis ------------------------------------------------------------

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the time its children cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.seconds
        return {s.index: s.seconds - covered.get(s.index, 0.0) for s in self.spans}

    def roots(self, name: str = "op") -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def layer_seconds_by_op(self) -> dict[str, dict[str, float]]:
        """``{op id: {layer: self seconds}}`` over every non-root span."""
        own = self.self_seconds()
        result: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.op is None or (span.parent is None and span.name == "op"):
                continue
            layers = result.setdefault(span.op, {})
            layers[span.name] = layers.get(span.name, 0.0) + own[span.index]
        return result

    def coverage(self) -> list[float]:
        """Per operation: share of its wall time the layer spans account for."""
        own = self.self_seconds()
        shares = []
        for root in self.roots():
            if root.seconds > 0:
                shares.append(1.0 - own[root.index] / root.seconds)
        return shares

    def layer_median(self, layer: str) -> tuple[float, int]:
        """Median self seconds per operation of one layer (0 when absent)."""
        values = [
            layers[layer]
            for layers in self.layer_seconds_by_op().values()
            if layer in layers
        ]
        return (median(values), len(values)) if values else (0.0, 0)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_seconds()
        rows = [
            {
                "index": s.index,
                "name": s.name,
                "op": s.op,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self": own[s.index],
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")


@contextmanager
def patched(module: Any, name: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``module.name`` by ``make(original)`` for the enclosed block."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


@contextmanager
def patched_all(targets: Iterable[tuple[Any, str, Callable[[Callable], Callable]]]) -> Iterator[None]:
    """:func:`patched` for every ``(module, name, make)`` in ``targets``."""
    with ExitStack() as stack:
        for module, name, make in targets:
            stack.enter_context(patched(module, name, make))
        yield


def traced_call(tracer: Tracer, layer: str) -> Callable[[Callable], Callable]:
    """Wrapper factory for :func:`patched`: a span around every call."""

    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with tracer.span(layer):
                return original(*args, **kwargs)

        return wrapper

    return make


def delayed_call(seconds: float) -> Callable[[Callable], Callable]:
    """Wrapper factory for :func:`patched`: sleep, then call the original."""

    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            time.sleep(seconds)
            return original(*args, **kwargs)

        return wrapper

    return make
