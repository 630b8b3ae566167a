"""Experiment orchestration: scenario registry, parallel executor, benchmarks.

The paper's guarantees are probabilistic and asymptotic, so validating them
means sweeping many seeded instances across workload families.  This module is
the substrate that runs those sweeps at hardware speed and makes the results
diffable:

* :class:`ScenarioSpec` + a process-global registry -- each benchmark
  experiment (workload family x sizes x seed block x
  :class:`~repro.core.algorithm.DesignParameters`) is declared once as a list
  of picklable *task* dicts plus a module-level task function;
* :class:`Gate` + :func:`check_gates` -- each scenario's paper-shape
  thresholds as ``value op bound`` rows, read by one validator;
* :func:`execute_tasks` -- a ``concurrent.futures`` executor that fans tasks
  out over worker processes, chunked by seed, and returns rows in task order
  so a run is deterministic given the master seed regardless of ``jobs``;
* :class:`BenchRecord` -- the versioned machine-readable result schema
  (per-row metrics, deterministic aggregates, timing aggregates, environment
  and commit metadata) serialised as ``BENCH_<ID>.json``;
* :func:`compare_records` -- baseline comparison that classifies per-metric
  drift as improvement / neutral / regression under per-metric tolerances
  (:class:`MetricPolicy`), which is what lets CI gate on benchmark output.

Scenario definitions themselves live in :mod:`repro.analysis.scenarios`; the
``repro bench`` CLI subcommand is the one client that runs them.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import operator
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

SCHEMA_VERSION = 1

#: Row keys with this suffix are wall-clock measurements: they are aggregated
#: separately (``BenchRecord.timings``) and never compared against baselines.
TIMING_SUFFIX = "_seconds"


# ---------------------------------------------------------------------------
# Metric comparison policies
# ---------------------------------------------------------------------------

#: Allowed drift directions: "lower" (lower is better), "higher" (higher is
#: better) and "equal" (any drift beyond tolerance is a regression -- used for
#: structural quantities such as LP sizes that must not silently change).
DIRECTIONS = ("lower", "higher", "equal")

CLASS_IMPROVEMENT = "improvement"
CLASS_NEUTRAL = "neutral"
CLASS_REGRESSION = "regression"
CLASS_NEW = "new"
CLASS_MISSING = "missing"


@dataclass(frozen=True)
class MetricPolicy:
    """How one metric is aggregated and compared against a baseline.

    ``rel_tol`` is relative to the magnitude of the baseline value and
    ``abs_tol`` is the floor below which drift is always neutral; the
    effective tolerance is ``max(abs_tol, rel_tol * |baseline|)``.  Drift
    exactly at the tolerance boundary is classified neutral.  For ``equal``
    metrics that must not silently change (LP sizes, node counts) pass
    ``rel_tol=0.0`` so only the ``abs_tol`` floor applies.
    """

    direction: str = "lower"
    rel_tol: float = 0.05
    abs_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )

    def tolerance(self, baseline: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(baseline))


@dataclass(frozen=True)
class MetricDrift:
    """One metric's drift between a current record and a baseline."""

    metric: str
    classification: str
    baseline: float | None = None
    current: float | None = None
    tolerance: float = 0.0

    @property
    def delta(self) -> float | None:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    def as_row(self) -> dict:
        row: dict = {"metric": self.metric, "classification": self.classification}
        if self.baseline is not None:
            row["baseline"] = self.baseline
        if self.current is not None:
            row["current"] = self.current
        if self.delta is not None:
            row["delta"] = self.delta
            row["tolerance"] = self.tolerance
        return row


# ---------------------------------------------------------------------------
# Gates: the paper-shape thresholds as data
# ---------------------------------------------------------------------------

_GATE_OPS = {
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
    "==": operator.eq,
}

#: What a ``<=``/``>=`` gate allows against a *named* bound: the ``1e-9`` the
#: hand-written column-vs-column checks added.  Numeric bounds carry their own
#: slack as written (``4.0 + 1e-9``).
NAMED_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Gate:
    """One paper-shape threshold, ``value op bound``, read off a record.

    ``value`` names a row column when ``per_row`` is set -- the gate is then
    checked on every row that has that column -- and otherwise a key of the
    record's ``metrics`` or of the scenario's ``gate_values(rows)``.  A value
    that is absent is not evaluated.  ``bound`` is a number, compared
    exactly, or the name of another value in the same scope; a ``<=``/``>=``
    against a named bound allows :data:`NAMED_BOUND_SLACK`.  ``full_only``
    gates are skipped on smoke records.
    """

    value: str
    op: str
    bound: float | str
    per_row: bool = False
    full_only: bool = False

    def __post_init__(self) -> None:
        if self.op not in _GATE_OPS:
            raise ValueError(f"gate op must be one of {sorted(_GATE_OPS)}, got {self.op!r}")

    def __str__(self) -> str:
        return f"{self.value} {self.op} {self.bound}"

    def holds(self, value: float, bound: float) -> bool:
        """``value op bound``, with the named-bound slack where it applies."""
        if isinstance(self.bound, str):
            if self.op == "<=":
                bound = bound + NAMED_BOUND_SLACK
            elif self.op == ">=":
                bound = bound - NAMED_BOUND_SLACK
        return _GATE_OPS[self.op](value, bound)


class GateCheck(NamedTuple):
    """One evaluation of a gate: on row ``row`` (per-row gates) or the record."""

    gate: Gate
    row: int | None
    value: float
    bound: float | None
    passed: bool

    def describe(self) -> str:
        where = f"row {self.row}: " if self.row is not None else ""
        if self.bound is None:
            return f"{where}{self.gate}: bound {self.gate.bound!r} missing"
        read = f"read {self.value!r}"
        if isinstance(self.gate.bound, str):
            read += f" against {self.bound!r}"
        return f"{where}{self.gate} failed ({read})"


def gate_scope(spec: ScenarioSpec, record: BenchRecord) -> dict[str, float]:
    """The names a record-level gate reads: ``metrics`` plus ``gate_values(rows)``.

    ``gate_values`` is recomputed here and never stored, so records stay as
    ``run_scenario`` wrote them.  A name in both is an error in the spec.
    """
    scope = dict(record.metrics)
    if spec.gate_values is not None:
        derived = spec.gate_values(record.rows)
        both = sorted(set(scope) & set(derived))
        if both:
            raise ValueError(
                f"scenario {spec.scenario_id!r}: {both} named by both metrics and gate_values"
            )
        scope.update(derived)
    return scope


def evaluate_gates(spec: ScenarioSpec, record: BenchRecord) -> list[GateCheck]:
    """Every evaluation of ``spec.gates`` on ``record``, passed or not."""
    checks: list[GateCheck] = []
    gates = [gate for gate in spec.gates if not (gate.full_only and record.smoke)]
    scope = gate_scope(spec, record) if any(not gate.per_row for gate in gates) else {}
    for gate in gates:
        targets = enumerate(record.rows) if gate.per_row else [(None, scope)]
        for index, names in targets:
            if gate.value not in names:
                continue
            value = names[gate.value]
            bound = names.get(gate.bound) if isinstance(gate.bound, str) else gate.bound
            passed = bound is not None and gate.holds(value, bound)
            checks.append(GateCheck(gate, index, value, bound, passed))
    return checks


def check_gates(spec: ScenarioSpec, record: BenchRecord) -> list[str]:
    """One line per failed gate of ``spec`` on ``record``; empty = pass."""
    return [check.describe() for check in evaluate_gates(spec, record) if not check.passed]


# ---------------------------------------------------------------------------
# Scenario specification and registry
# ---------------------------------------------------------------------------


@dataclass
class ScenarioSpec:
    """A registered experiment: declarative tasks + a picklable task function.

    Attributes
    ----------
    scenario_id:
        Short stable identifier (``"t5"``, ``"c1"``, ...); uppercased it names
        the JSON artifact (``BENCH_T5.json``).
    title:
        One-line human description, printed as the table title.
    task_fn:
        Module-level function ``task_dict -> row_dict | list[row_dict]``.
        It must be importable from worker processes (no lambdas/closures) and
        derive all randomness from seeds carried *inside* the task dict.
    make_tasks:
        ``(master_seed, smoke) -> list[task_dict]``.  Every task dict must be
        picklable and JSON-friendly; seeds are derived from ``master_seed`` so
        the whole scenario is reproducible from one integer.
    policies:
        Per-metric comparison policies.  Metrics named here are aggregated
        into ``BenchRecord.aggregates`` and compared by :func:`compare_records`.
    derive_metrics:
        Optional ``rows -> dict[str, float]`` computing scenario-level scalar
        key metrics (e.g. one value per baseline design) in the parent
        process; they land in ``BenchRecord.metrics`` and participate in
        comparison under the same policy names.
    gates:
        The paper-shape thresholds as :class:`Gate` rows, checked by
        :func:`check_gates` (``repro bench`` exits 1 when one fails).
    gate_values:
        Optional ``rows -> dict[str, float]`` for what a gate cannot read off
        one row or one metric: comparisons across rows, arithmetic on
        columns, row counts.  Write each relation as a difference compared
        with 0.  The values are recomputed at check time and never stored.
    artifact:
        Stem of the plain-text table artifact (defaults to the bench id).
    columns:
        Optional column order for the rendered table.
    suites:
        Named suite tags: ``repro bench --suite <tag>`` expands a tag to
        every scenario carrying it (e.g. ``--suite reliability``), in
        addition to accepting plain scenario ids.
    """

    scenario_id: str
    title: str
    task_fn: Callable[[dict], dict | list[dict]]
    make_tasks: Callable[[int, bool], list[dict]]
    policies: dict[str, MetricPolicy] = field(default_factory=dict)
    derive_metrics: Callable[[list[dict]], dict[str, float]] | None = None
    gates: tuple[Gate, ...] = ()
    gate_values: Callable[[list[dict]], dict[str, float]] | None = None
    artifact: str | None = None
    columns: Sequence[str] | None = None
    description: str = ""
    suites: tuple[str, ...] = ()

    @property
    def bench_id(self) -> str:
        return self.scenario_id.upper()

    @property
    def artifact_stem(self) -> str:
        return self.artifact or self.bench_id


_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Register ``spec`` under its id (last registration wins, for reloads)."""
    _REGISTRY[spec.scenario_id] = spec
    return spec


def get_scenario(scenario_id: str) -> ScenarioSpec:
    _ensure_scenarios_loaded()
    try:
        return _REGISTRY[scenario_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {scenario_id!r} (known: {known})") from None


def scenario_ids() -> list[str]:
    _ensure_scenarios_loaded()
    return sorted(_REGISTRY)


def suite_tags() -> dict[str, list[str]]:
    """All suite tags and the scenario ids carrying each, sorted."""
    _ensure_scenarios_loaded()
    tags: dict[str, list[str]] = {}
    for sid in sorted(_REGISTRY):
        for tag in _REGISTRY[sid].suites:
            tags.setdefault(tag, []).append(sid)
    return tags


def expand_scenario_ids(requested: Iterable[str]) -> list[str]:
    """Resolve a mix of scenario ids and suite tags to scenario ids.

    Unknown names raise ``KeyError`` listing both the known ids and the known
    tags; duplicates (an id requested directly and again via a tag) are kept
    once, in first-mention order.
    """
    _ensure_scenarios_loaded()
    tags = suite_tags()
    out: list[str] = []
    for name in requested:
        if name in _REGISTRY:
            expansion = [name]
        elif name in tags:
            expansion = tags[name]
        else:
            known = ", ".join(sorted(_REGISTRY))
            known_tags = ", ".join(sorted(tags))
            raise KeyError(
                f"unknown suite {name!r} (scenario ids: {known}; suite tags: {known_tags})"
            )
        for sid in expansion:
            if sid not in out:
                out.append(sid)
    return out


def _ensure_scenarios_loaded() -> None:
    # The standard scenario catalogue registers itself on import; loading it
    # lazily avoids a circular import (scenarios -> runner).
    import repro.analysis.scenarios  # noqa: F401


# ---------------------------------------------------------------------------
# Parallel executor
# ---------------------------------------------------------------------------


def integer_option(name: str, value: object) -> int:
    """A count option (``jobs``, ``shards``) as an int: an int or a numeric string.

    Anything else -- a float, a bool, a list -- is a ``ValueError`` naming
    ``name``, so a wrongly typed request option is refused, not a traceback.
    """
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer or 'auto', got {type(value).__name__}")


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/1 -> serial, ``"auto"`` -> CPUs."""
    if jobs is None:
        return 1
    if jobs == "auto":
        return max(1, os.cpu_count() or 1)
    jobs = integer_option("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def execute_tasks(
    task_fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: int | str | None = 1,
) -> list[Any]:
    """Run ``task_fn`` over ``tasks``, possibly across worker processes.

    Results come back in task order, so any deterministic ``task_fn`` yields
    output independent of ``jobs``: parallel and serial runs are bit-for-bit
    identical.  Tasks are chunked so that per-seed units amortise process
    round-trips.  With ``jobs=1`` everything runs inline (no pool, no pickle
    requirement on ``task_fn``).
    """
    return list(execute_tasks_iter(task_fn, tasks, jobs=jobs))


def execute_tasks_iter(
    task_fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: int | str | None = 1,
) -> Iterator[Any]:
    """Lazy :func:`execute_tasks`: yield results in task order as they arrive.

    Same determinism contract (task-order results, ``jobs`` never changes
    them), but the caller folds each result before the next is held -- the
    streaming simulation engine consumes tile partials through this so its
    coordinator memory stays flat in the tile count.
    """
    jobs = resolve_jobs(jobs)
    tasks = list(tasks)
    if jobs == 1 or len(tasks) <= 1:
        for task in tasks:
            yield task_fn(task)
        return
    workers = min(jobs, len(tasks))
    chunksize = max(1, math.ceil(len(tasks) / (4 * workers)))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(task_fn, tasks, chunksize=chunksize)


# ---------------------------------------------------------------------------
# BenchRecord: the versioned result schema
# ---------------------------------------------------------------------------


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def aggregate_rows(rows: Sequence[Mapping[str, object]], names: Iterable[str]) -> dict:
    """Min/mean/max/count over ``names`` columns, in row order (deterministic)."""
    out: dict[str, dict] = {}
    for name in names:
        values = [float(row[name]) for row in rows if name in row and _is_number(row[name])]
        if not values:
            continue
        out[name] = {
            "count": len(values),
            "min": min(values),
            "mean": sum(values) / len(values),
            "max": max(values),
        }
    return out


def collect_environment() -> dict:
    """Environment/commit metadata embedded in every record (best effort)."""
    env = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    for module_name in ("numpy", "scipy"):
        try:
            env[module_name] = __import__(module_name).__version__
        except Exception:  # pragma: no cover - import failure is environmental
            env[module_name] = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        env["git_commit"] = commit.stdout.strip() if commit.returncode == 0 else None
    except Exception:  # pragma: no cover - git missing entirely
        env["git_commit"] = None
    return env


@dataclass
class BenchRecord:
    """Machine-readable result of one scenario run (schema version 1).

    ``rows`` hold every per-task measurement (including wall-clock columns);
    ``aggregates`` summarise only the deterministic metrics named by the
    scenario's policies; ``timings`` summarise the ``*_seconds`` columns;
    ``metrics`` are scenario-level scalar key metrics.  Aggregates and metrics
    are computed from rows in task order in the parent process, so they are
    bit-for-bit identical between serial and parallel runs of the same master
    seed.
    """

    bench_id: str
    scenario_id: str
    title: str
    master_seed: int
    smoke: bool
    jobs: int
    rows: list[dict]
    aggregates: dict[str, dict]
    timings: dict[str, dict]
    metrics: dict[str, float]
    environment: dict
    created_at: str
    elapsed_seconds: float
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "bench_id": self.bench_id,
            "scenario_id": self.scenario_id,
            "title": self.title,
            "master_seed": self.master_seed,
            "smoke": self.smoke,
            "jobs": self.jobs,
            "rows": self.rows,
            "aggregates": self.aggregates,
            "timings": self.timings,
            "metrics": self.metrics,
            "environment": self.environment,
            "created_at": self.created_at,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BenchRecord":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported BenchRecord schema version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        return cls(
            bench_id=data["bench_id"],
            scenario_id=data["scenario_id"],
            title=data.get("title", ""),
            master_seed=data.get("master_seed", 0),
            smoke=bool(data.get("smoke", False)),
            jobs=data.get("jobs", 1),
            rows=list(data.get("rows", [])),
            aggregates=dict(data.get("aggregates", {})),
            timings=dict(data.get("timings", {})),
            metrics=dict(data.get("metrics", {})),
            environment=dict(data.get("environment", {})),
            created_at=data.get("created_at", ""),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "BenchRecord":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def comparable_metrics(self) -> dict[str, float]:
        out = {name: float(value) for name, value in self.metrics.items()}
        for name, stats in self.aggregates.items():
            out.setdefault(name, float(stats["mean"]))
        return out


def run_scenario(
    spec: ScenarioSpec,
    *,
    jobs: int | str | None = 1,
    master_seed: int = 0,
    smoke: bool = False,
) -> BenchRecord:
    """Execute every task of ``spec`` and assemble its :class:`BenchRecord`."""
    jobs = resolve_jobs(jobs)
    tasks = spec.make_tasks(master_seed, smoke)
    start = time.perf_counter()
    results = execute_tasks(spec.task_fn, tasks, jobs=jobs)
    elapsed = time.perf_counter() - start
    rows: list[dict] = []
    for result in results:
        if isinstance(result, dict):
            rows.append(result)
        else:
            rows.extend(result)
    timing_names = sorted({key for row in rows for key in row if key.endswith(TIMING_SUFFIX)})
    metrics = spec.derive_metrics(rows) if spec.derive_metrics is not None else {}
    return BenchRecord(
        bench_id=spec.bench_id,
        scenario_id=spec.scenario_id,
        title=spec.title,
        master_seed=master_seed,
        smoke=smoke,
        jobs=jobs,
        rows=rows,
        aggregates=aggregate_rows(rows, spec.policies),
        timings=aggregate_rows(rows, timing_names),
        metrics={name: float(value) for name, value in metrics.items()},
        environment=collect_environment(),
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        elapsed_seconds=elapsed,
    )


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------


def classify_drift(policy: MetricPolicy, baseline: float, current: float) -> tuple[str, float]:
    """Classify one metric's drift; returns (classification, tolerance used)."""
    tolerance = policy.tolerance(baseline)
    delta = current - baseline
    if abs(delta) <= tolerance:
        return CLASS_NEUTRAL, tolerance
    if policy.direction == "equal":
        return CLASS_REGRESSION, tolerance
    worse = delta > 0 if policy.direction == "lower" else delta < 0
    return (CLASS_REGRESSION if worse else CLASS_IMPROVEMENT), tolerance


@dataclass
class ComparisonReport:
    """Classified drift of one record against its baseline."""

    scenario_id: str
    drifts: list[MetricDrift]

    @property
    def regressions(self) -> list[MetricDrift]:
        return [d for d in self.drifts if d.classification in (CLASS_REGRESSION, CLASS_MISSING)]

    def rows(self) -> list[dict]:
        return [drift.as_row() for drift in self.drifts]


def compare_records(
    current: BenchRecord,
    baseline: BenchRecord | Mapping,
    policies: Mapping[str, MetricPolicy] | None = None,
) -> ComparisonReport:
    """Compare ``current`` against ``baseline`` under per-metric policies.

    Policies default to the registered scenario's.  Metrics present in the
    baseline but absent from the current record are classified ``missing``
    (counted as a regression: a tracked quantity silently disappeared);
    metrics new in the current record are ``new`` (neutral).
    """
    if not isinstance(baseline, BenchRecord):
        baseline = BenchRecord.from_dict(baseline)
    if policies is None:
        _ensure_scenarios_loaded()
        spec = _REGISTRY.get(current.scenario_id)
        policies = spec.policies if spec is not None else {}
    if current.smoke != baseline.smoke:
        raise ValueError(
            f"cannot compare a smoke={current.smoke} run against a "
            f"smoke={baseline.smoke} baseline for scenario {current.scenario_id!r}"
        )
    current_values = current.comparable_metrics()
    baseline_values = baseline.comparable_metrics()
    drifts: list[MetricDrift] = []
    default_policy = MetricPolicy(direction="equal", rel_tol=0.0)
    for name in sorted(set(current_values) | set(baseline_values)):
        policy = policies.get(name, default_policy)
        base = baseline_values.get(name)
        cur = current_values.get(name)
        if base is None:
            drifts.append(MetricDrift(metric=name, classification=CLASS_NEW, current=cur))
        elif cur is None:
            drifts.append(MetricDrift(metric=name, classification=CLASS_MISSING, baseline=base))
        else:
            classification, tolerance = classify_drift(policy, base, cur)
            drifts.append(
                MetricDrift(
                    metric=name,
                    classification=classification,
                    baseline=base,
                    current=cur,
                    tolerance=tolerance,
                )
            )
    return ComparisonReport(scenario_id=current.scenario_id, drifts=drifts)


# ---------------------------------------------------------------------------
# Baseline suite files (several records in one JSON document)
# ---------------------------------------------------------------------------


def save_suite(records: Mapping[str, BenchRecord], path: str | Path) -> Path:
    """Write a combined baseline file mapping scenario id -> record."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench-suite",
        "records": {sid: record.to_dict() for sid, record in sorted(records.items())},
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_suite(path: str | Path) -> dict[str, BenchRecord]:
    """Read a baseline file: either a suite document or a single record."""
    data = json.loads(Path(path).read_text())
    if "records" in data:
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported bench-suite schema version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        return {
            sid: BenchRecord.from_dict(record) for sid, record in data["records"].items()
        }
    record = BenchRecord.from_dict(data)
    return {record.scenario_id: record}


__all__ = [
    "BenchRecord",
    "ComparisonReport",
    "Gate",
    "GateCheck",
    "MetricDrift",
    "MetricPolicy",
    "SCHEMA_VERSION",
    "ScenarioSpec",
    "aggregate_rows",
    "check_gates",
    "classify_drift",
    "collect_environment",
    "compare_records",
    "evaluate_gates",
    "execute_tasks",
    "execute_tasks_iter",
    "expand_scenario_ids",
    "gate_scope",
    "get_scenario",
    "integer_option",
    "load_suite",
    "register_scenario",
    "resolve_jobs",
    "run_scenario",
    "save_suite",
    "scenario_ids",
    "suite_tags",
]
