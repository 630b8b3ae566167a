"""Typed request/response boundary of the design service.

A :class:`DesignRequest` bundles everything needed to produce one overlay
design -- the problem instance, the pipeline knobs
(:class:`~repro.core.algorithm.DesignParameters`), the strategy name resolved
through the :mod:`repro.api.registry`, and per-strategy ``options`` -- and a
:class:`DesignResult` is what every strategy returns: the solution, the LP
lower bound when the strategy computed one, per-stage wall-clock timings, the
constraint-violation audit, and free-form metadata.

Both types have a versioned JSON encoding (``schema_version`` +
``kind`` discriminator, extending the document conventions of
:mod:`repro.core.serialization`), which is what ``repro batch`` reads and
writes and what :func:`repro.api.design_batch` ships across worker processes.
``options`` must be JSON-typed for a request to serialize.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.audit import SolutionAudit
from repro.core.algorithm import DesignParameters, DesignReport
from repro.core.formulation import ExtensionOptions
from repro.core.problem import OverlayDesignProblem
from repro.core.rounding import RoundingParameters
from repro.core.serialization import (
    DocumentError,
    check_document,
    problem_from_dict,
    problem_to_dict,
    solution_from_dict,
    solution_to_dict,
)
from repro.core.solution import OverlaySolution

#: Version written into every request/result document; bump on breaking changes.
#: Version 2 added the ``cache`` provenance block to result documents (digest,
#: per-stage hit/miss, session id); version-1 documents still load.
SCHEMA_VERSION = 2

#: Every document version this build can read (newest last).
SCHEMA_VERSIONS_READ = (1, 2)

REQUEST_KIND = "design-request"
RESULT_KIND = "design-result"


@dataclass
class EvaluationSpec:
    """Monte-Carlo reliability evaluation attached to a design request.

    When a request carries one, the registry runs the produced solution
    through the failure-scenario catalogue
    (:func:`repro.simulation.evaluate_design`, the tiled Monte-Carlo fold)
    and attaches the per-scenario reliability metrics to the result's
    ``evaluation`` field.

    Attributes
    ----------
    scenarios:
        Registered failure-scenario names, or ``"all"`` for the whole
        catalogue.
    trials:
        Monte-Carlo trials per scenario.
    num_packets:
        Packets per simulated session.
    window:
        Worst-window statistic size (multiples of 8 stay on the engine's
        byte-aligned fast path).
    seed:
        Seed of the evaluation sweep (failure draws + engine randomness).
    traces:
        Registered load-trace names replayed through the fold (per-window
        loss + rebuffering metrics).
    max_memory:
        Working-set bound of one tile in bytes (``None`` keeps the default
        tile grid).
    scenario_files:
        Paths to scenario DSL documents (see :mod:`repro.simulation.dsl`)
        registered into the catalogue before the sweep runs; their names
        become sweepable exactly like built-ins (``scenarios="all"`` picks
        them up).  Validation failures surface when the request runs.
    """

    scenarios: tuple[str, ...] | str = "all"
    trials: int = 30
    num_packets: int = 2000
    window: int = 200
    seed: int = 0
    traces: tuple[str, ...] = ()
    max_memory: int | None = None
    scenario_files: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.scenarios, list):
            self.scenarios = tuple(self.scenarios)
        if isinstance(self.traces, list):
            self.traces = tuple(self.traces)
        if isinstance(self.scenario_files, list):
            self.scenario_files = tuple(self.scenario_files)
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.num_packets <= 0:
            raise ValueError("num_packets must be positive")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.max_memory is not None and self.max_memory <= 0:
            raise ValueError("max_memory must be positive when set")

    def evaluate(
        self, problem: OverlayDesignProblem, solution: OverlaySolution
    ) -> dict[str, dict[str, float]]:
        """Sweep ``solution`` across the catalogue with this spec's fields.

        Registers :attr:`scenario_files` first, so their names are
        sweepable.
        """
        # Lazy import: the simulation stack imports this module.
        from repro.simulation import evaluate_design, register_scenario_file

        for path in self.scenario_files:
            register_scenario_file(path)
        return evaluate_design(
            problem,
            solution,
            self.scenarios,
            trials=self.trials,
            num_packets=self.num_packets,
            window=self.window,
            seed=self.seed,
            traces=self.traces,
            max_memory=self.max_memory,
        )


#: ``evaluation.mode`` values written before the engines merged; read and ignored.
_LEGACY_MODES = ("batched", "streaming")

#: ``parameters.solver_backend`` values written before the one solver call;
#: read and ignored.
_LEGACY_BACKENDS = ("highs", "highs-mip")


def evaluation_spec_to_dict(spec: EvaluationSpec) -> dict[str, Any]:
    """Encode an :class:`EvaluationSpec` as a JSON-compatible mapping."""
    scenarios = spec.scenarios
    data: dict[str, Any] = {
        "scenarios": list(scenarios) if not isinstance(scenarios, str) else scenarios,
        "trials": spec.trials,
        "num_packets": spec.num_packets,
        "window": spec.window,
        "seed": spec.seed,
    }
    # Optional fields are emitted only when set, so documents that do not
    # use them stay byte-stable across builds.
    if spec.traces:
        data["traces"] = list(spec.traces)
    if spec.max_memory is not None:
        data["max_memory"] = spec.max_memory
    if spec.scenario_files:
        data["scenario_files"] = list(spec.scenario_files)
    return data


def _object(value: Any, field: str) -> dict[str, Any]:
    """``value`` if it is a JSON object, else a :class:`DocumentError` naming ``field``."""
    if not isinstance(value, dict):
        raise DocumentError(f"{field} must be an object, got {type(value).__name__}")
    return value


#: The JSON scalar kinds a document field can be checked against.  Bools are
#: neither integers nor numbers.
_SCALAR_KINDS: dict[str, Any] = {
    "an integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "a number": lambda value: isinstance(value, numbers.Real) and not isinstance(value, bool),
    "a boolean": lambda value: isinstance(value, bool),
}


def _scalar(data: dict[str, Any], where: str, key: str, kind: str, default: Any) -> Any:
    """``data[key]`` (``default`` when absent) if it is ``kind``, else a
    :class:`DocumentError` naming ``<where>.<key>``; ``None`` passes only as
    the default."""
    value = data.get(key, default)
    if (value is None and default is None) or _SCALAR_KINDS[kind](value):
        return value
    raise DocumentError(f"{where}.{key} must be {kind}, got {type(value).__name__}")


def _names(data: dict[str, Any], key: str) -> tuple[str, ...]:
    """``evaluation.<key>`` as a tuple of strings."""
    value = data.get(key, [])
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise DocumentError(f"evaluation.{key} must be a list of strings")
    return tuple(value)


def evaluation_spec_from_dict(data: dict[str, Any]) -> EvaluationSpec:
    """Decode an :class:`EvaluationSpec` from its JSON form.

    A field of the wrong JSON type raises
    :class:`~repro.core.serialization.DocumentError` naming it.  ``mode``
    (written by builds with two engines) is accepted as ``"batched"`` or
    ``"streaming"`` and ignored.
    """
    data = _object(data, "evaluation")
    if data.get("mode", _LEGACY_MODES[0]) not in _LEGACY_MODES:
        raise DocumentError(
            f"evaluation.mode must be 'batched' or 'streaming', got {data['mode']!r}"
        )
    scenarios = data.get("scenarios", "all")

    def integer(key: str, default: int | None) -> int | None:
        return _scalar(data, "evaluation", key, "an integer", default)

    return EvaluationSpec(
        scenarios=scenarios if isinstance(scenarios, str) else _names(data, "scenarios"),
        trials=integer("trials", 30),
        num_packets=integer("num_packets", 2000),
        window=integer("window", 200),
        seed=integer("seed", 0),
        traces=_names(data, "traces"),
        max_memory=integer("max_memory", None),
        scenario_files=_names(data, "scenario_files"),
    )


@dataclass
class DesignRequest:
    """One unit of design work addressed to a registered strategy.

    Attributes
    ----------
    problem:
        The instance to design for.
    parameters:
        Pipeline knobs; strategies that don't use a knob ignore it (e.g. the
        greedy baseline only reads the seed).  ``parameters.rounding.seed`` is
        the canonical per-request seed (see :attr:`seed`).
    strategy:
        Registry name resolved via :func:`repro.api.get_designer`.
    options:
        Per-strategy keyword options (e.g. ``{"fanout_slack": 2.0}`` for the
        greedy baseline).  Unknown options raise ``ValueError`` at design time.
    evaluation:
        Optional :class:`EvaluationSpec`; when present (and the strategy
        produces a solution) the result carries per-scenario reliability
        metrics from the Monte-Carlo engine under ``result.evaluation``.
    request_id:
        Optional caller-supplied correlation id, echoed on the result.
    """

    problem: OverlayDesignProblem
    parameters: DesignParameters = field(default_factory=DesignParameters)
    strategy: str = "spaa03"
    options: dict = field(default_factory=dict)
    evaluation: EvaluationSpec | None = None
    request_id: str | None = None

    @property
    def seed(self) -> int | None:
        """The request's seed (``parameters.rounding.seed``)."""
        return self.parameters.rounding.seed


@dataclass
class DesignResult:
    """What every registered strategy returns for a :class:`DesignRequest`.

    Attributes
    ----------
    strategy:
        Registry name of the designer that produced this result.
    solution:
        The integral design (empty for bound-only strategies like
        ``"lp-bound"``).
    lower_bound:
        The LP lower bound when the strategy computed one, else ``None``.
    stage_seconds:
        Per-stage wall-clock times (pipeline strategies report every stage;
        one-shot baselines report a single ``"design"`` entry).
    audit:
        Constraint-violation audit of ``solution`` (``None`` for bound-only
        strategies).
    metadata:
        Free-form strategy-specific extras (rounding attempts, search nodes,
        ...).  Only JSON-typed values survive serialization.
    evaluation:
        Per-scenario reliability metrics (``{scenario: {metric: value}}``)
        when the request carried an :class:`EvaluationSpec`, else ``None``.
    cache:
        Cache provenance stamped by the serving layer (:mod:`repro.serve`):
        ``request_digest``/``problem_digest`` (the content-addressed keys),
        ``stages`` (per-stage ``"hit"``/``"miss"``), ``session_id`` when the
        result came out of a :class:`~repro.serve.DesignSession`, and
        ``served_from_cache`` for whole-result hits.  ``None`` for results
        produced outside the serving layer (schema version 2; see
        ``docs/serving.md``).
    request_id:
        Echo of the request's correlation id.
    report:
        The full in-memory :class:`~repro.core.algorithm.DesignReport` for
        pipeline strategies (never serialized; ``None`` after a round-trip).
    """

    strategy: str
    solution: OverlaySolution
    lower_bound: float | None = None
    stage_seconds: dict[str, float] = field(default_factory=dict)
    audit: SolutionAudit | None = None
    metadata: dict = field(default_factory=dict)
    evaluation: dict[str, dict[str, float]] | None = None
    cache: dict | None = None
    request_id: str | None = None
    report: DesignReport | None = None
    schema_version: int = SCHEMA_VERSION

    @property
    def total_cost(self) -> float:
        return self.solution.total_cost()

    @property
    def cost_ratio(self) -> float:
        """Cost over the LP lower bound; ``inf`` when no bound is available."""
        if self.lower_bound is None or self.lower_bound <= 0:
            return float("inf") if self.total_cost > 0 else 1.0
        return self.total_cost / self.lower_bound

    def summary(self) -> dict:
        """Flat metric dictionary (the ``repro design`` table)."""
        info = dict(self.solution.summary())
        info["strategy"] = self.strategy
        if self.lower_bound is not None:
            info["lp_lower_bound"] = self.lower_bound
            info["cost_ratio"] = self.cost_ratio
        if self.report is not None:
            info["lp_variables"] = self.report.formulation_size[0]
            info["lp_constraints"] = self.report.formulation_size[1]
            info["rounding_attempts"] = self.report.rounding_attempts
        info["stage_seconds"] = dict(self.stage_seconds)
        return info


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------


def parameters_to_dict(parameters: DesignParameters) -> dict[str, Any]:
    """Encode :class:`DesignParameters` (all knobs, nested dataclasses inline)."""
    return {
        "rounding": {
            "c": parameters.rounding.c,
            "delta": parameters.rounding.delta,
            "seed": parameters.rounding.seed,
        },
        "extensions": {
            "use_bandwidth": parameters.extensions.use_bandwidth,
            "use_reflector_capacities": parameters.extensions.use_reflector_capacities,
            "use_arc_capacities": parameters.extensions.use_arc_capacities,
            "use_color_constraints": parameters.extensions.use_color_constraints,
            "drop_cutting_plane": parameters.extensions.drop_cutting_plane,
        },
        "retry_rounding": parameters.retry_rounding,
        "max_rounding_attempts": parameters.max_rounding_attempts,
        "keep_degenerate_box": parameters.keep_degenerate_box,
        "repair_shortfall": parameters.repair_shortfall,
        "repair_fanout_slack": parameters.repair_fanout_slack,
    }


def parameters_from_dict(data: dict[str, Any]) -> DesignParameters:
    """Decode :class:`DesignParameters` from :func:`parameters_to_dict` output.

    ``solver_backend`` (written by builds with a solver registry) is accepted
    as ``"highs"`` or ``"highs-mip"`` and ignored: both ran the HiGHS call
    every solve now makes.
    """
    data = _object(data, "parameters")
    if data.get("solver_backend", _LEGACY_BACKENDS[0]) not in _LEGACY_BACKENDS:
        raise DocumentError(
            "parameters.solver_backend must be 'highs' or 'highs-mip', "
            f"got {data['solver_backend']!r}"
        )
    rounding = _object(data.get("rounding", {}), "parameters.rounding")
    extensions = _object(data.get("extensions", {}), "parameters.extensions")

    def switch(key: str, default: bool) -> bool:
        return _scalar(extensions, "parameters.extensions", key, "a boolean", default)

    return DesignParameters(
        rounding=RoundingParameters(
            c=_scalar(rounding, "parameters.rounding", "c", "a number", 8.0),
            delta=_scalar(rounding, "parameters.rounding", "delta", "a number", 0.25),
            seed=_scalar(rounding, "parameters.rounding", "seed", "an integer", None),
        ),
        extensions=ExtensionOptions(
            use_bandwidth=switch("use_bandwidth", False),
            use_reflector_capacities=switch("use_reflector_capacities", False),
            use_arc_capacities=switch("use_arc_capacities", False),
            use_color_constraints=switch("use_color_constraints", False),
            drop_cutting_plane=switch("drop_cutting_plane", False),
        ),
        retry_rounding=_scalar(data, "parameters", "retry_rounding", "a boolean", True),
        max_rounding_attempts=_scalar(
            data, "parameters", "max_rounding_attempts", "an integer", 20
        ),
        keep_degenerate_box=_scalar(data, "parameters", "keep_degenerate_box", "a boolean", True),
        repair_shortfall=_scalar(data, "parameters", "repair_shortfall", "a boolean", False),
        repair_fanout_slack=_scalar(data, "parameters", "repair_fanout_slack", "a number", 4.0),
    )


def audit_to_dict(audit: SolutionAudit) -> dict[str, Any]:
    """Encode a :class:`~repro.analysis.audit.SolutionAudit` losslessly."""
    return {
        "weight_fraction": [
            [sink, stream, value]
            for (sink, stream), value in sorted(audit.weight_fraction.items())
        ],
        "fanout_factor": {
            reflector: value for reflector, value in sorted(audit.fanout_factor.items())
        },
        "color_violations": audit.color_violations,
        "arc_capacity_factor": [
            [reflector, sink, value]
            for (reflector, sink), value in sorted(audit.arc_capacity_factor.items())
        ],
        "unserved_demands": audit.unserved_demands,
    }


def audit_from_dict(data: dict[str, Any]) -> SolutionAudit:
    """Decode a :class:`~repro.analysis.audit.SolutionAudit`."""
    return SolutionAudit(
        weight_fraction={
            (sink, stream): value
            for sink, stream, value in data.get("weight_fraction", [])
        },
        fanout_factor=dict(data.get("fanout_factor", {})),
        color_violations=data.get("color_violations", 0),
        arc_capacity_factor={
            (reflector, sink): value
            for reflector, sink, value in data.get("arc_capacity_factor", [])
        },
        unserved_demands=data.get("unserved_demands", 0),
    )


def request_to_dict(request: DesignRequest) -> dict[str, Any]:
    """Encode a request (problem embedded) as a JSON-compatible document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": REQUEST_KIND,
        "strategy": request.strategy,
        "request_id": request.request_id,
        "parameters": parameters_to_dict(request.parameters),
        "options": dict(request.options),
        "evaluation": (
            evaluation_spec_to_dict(request.evaluation)
            if request.evaluation is not None
            else None
        ),
        "problem": problem_to_dict(request.problem),
    }


def request_from_dict(data: dict[str, Any]) -> DesignRequest:
    """Decode a request document produced by :func:`request_to_dict`.

    Reads every version in :data:`SCHEMA_VERSIONS_READ`, so documents written
    by older builds keep loading after a schema bump.  A field of the wrong
    JSON type raises :class:`~repro.core.serialization.DocumentError` (a
    ``ValueError``) naming the field.
    """
    check_document(
        data,
        REQUEST_KIND,
        version=SCHEMA_VERSION,
        version_key="schema_version",
        accept_versions=SCHEMA_VERSIONS_READ,
    )
    evaluation_data = data.get("evaluation")
    strategy = data.get("strategy", "spaa03")
    if not isinstance(strategy, str):
        raise DocumentError(f"strategy must be a string, got {type(strategy).__name__}")
    return DesignRequest(
        problem=problem_from_dict(data["problem"]),
        parameters=parameters_from_dict(data.get("parameters", {})),
        strategy=strategy,
        options=dict(_object(data.get("options", {}), "options")),
        evaluation=(
            evaluation_spec_from_dict(evaluation_data)
            if evaluation_data is not None
            else None
        ),
        request_id=data.get("request_id"),
    )


def result_to_dict(result: DesignResult) -> dict[str, Any]:
    """Encode a result as a JSON-compatible document.

    The in-memory ``report`` is intentionally dropped (it holds the full LP
    and rounding state); everything else -- including stage timings and every
    audit field -- round-trips through :func:`result_from_dict`.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": RESULT_KIND,
        "strategy": result.strategy,
        "request_id": result.request_id,
        "lower_bound": result.lower_bound,
        "stage_seconds": dict(result.stage_seconds),
        "audit": audit_to_dict(result.audit) if result.audit is not None else None,
        "metadata": {
            key: value
            for key, value in result.metadata.items()
            if isinstance(value, (str, int, float, bool, type(None)))
        },
        "evaluation": result.evaluation,
        "cache": dict(result.cache) if result.cache is not None else None,
        "solution": solution_to_dict(result.solution),
    }


def result_from_dict(
    data: dict[str, Any], problem: OverlayDesignProblem
) -> DesignResult:
    """Decode a result document against its problem instance.

    Reads every version in :data:`SCHEMA_VERSIONS_READ`: version-1 documents
    (no ``cache`` block) load with ``cache=None``.
    """
    check_document(
        data,
        RESULT_KIND,
        version=SCHEMA_VERSION,
        version_key="schema_version",
        accept_versions=SCHEMA_VERSIONS_READ,
    )
    audit_data = data.get("audit")
    cache_data = data.get("cache")
    return DesignResult(
        strategy=data.get("strategy", "unknown"),
        solution=solution_from_dict(data["solution"], problem),
        lower_bound=data.get("lower_bound"),
        stage_seconds=dict(data.get("stage_seconds", {})),
        audit=audit_from_dict(audit_data) if audit_data is not None else None,
        metadata=dict(data.get("metadata", {})),
        evaluation=data.get("evaluation"),
        cache=dict(cache_data) if cache_data is not None else None,
        request_id=data.get("request_id"),
    )


__all__ = [
    "SCHEMA_VERSION",
    "SCHEMA_VERSIONS_READ",
    "DesignRequest",
    "DesignResult",
    "EvaluationSpec",
    "audit_from_dict",
    "audit_to_dict",
    "evaluation_spec_from_dict",
    "evaluation_spec_to_dict",
    "parameters_from_dict",
    "parameters_to_dict",
    "request_from_dict",
    "request_to_dict",
    "result_from_dict",
    "result_to_dict",
]
