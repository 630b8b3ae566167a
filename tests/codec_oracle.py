"""Differential oracle for the document codecs declared in :mod:`repro.core.schema`.

These are the hand-written decoders, encoders and field checkers that the
declarations replaced, moved here unchanged: the request, parameters,
evaluation, audit and result codecs of ``repro.api.types``, the problem and
solution codecs of ``repro.core.serialization``, the delta codec of
``repro.incremental.delta`` and the scenario DSL's field checkers and
normalizer.  ``tests/test_codec_differential.py`` holds the declarations to
them: equal objects, identical JSON text, equal digests, and refusals in the
same places except for the values the declarations newly refuse.
"""

from __future__ import annotations

import numbers
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.analysis.audit import SolutionAudit
from repro.api.types import (
    REQUEST_KIND,
    RESULT_KIND,
    SCHEMA_VERSION,
    SCHEMA_VERSIONS_READ,
    DesignRequest,
    DesignResult,
    EvaluationSpec,
)
from repro.core.algorithm import DesignParameters
from repro.core.formulation import ExtensionOptions
from repro.core.problem import OverlayDesignProblem, StreamEdge
from repro.core.rounding import RoundingParameters
from repro.core.serialization import FORMAT_VERSION, DocumentError
from repro.core.solution import OverlaySolution
from repro.incremental.delta import (
    DELTA_FORMAT_VERSION,
    DeliveryEdgeSpec,
    ProblemDelta,
    SinkAttachment,
    StreamEdgeSpec,
)
from repro.simulation.dsl import _LOSS_MODELS, ScenarioValidationError, SpecIssue
from repro.simulation.dsl import SCHEMA_VERSION as DSL_SCHEMA_VERSION
from repro.simulation.scenarios import _COMPAT_STREAM_KEYS


def check_document(
    data: dict[str, Any],
    expected_kind: str,
    *,
    version: int = FORMAT_VERSION,
    version_key: str = "format_version",
    accept_versions: tuple[int, ...] | None = None,
) -> int:
    """Validate a document's ``kind`` discriminator and version field.

    Shared by this module's problem/solution documents (``format_version``)
    and the :mod:`repro.api` request/result documents (``schema_version``).
    ``accept_versions`` lists every readable version when a schema bump keeps
    older documents loadable (defaults to just ``version``); the version
    actually found is returned so decoders can branch on it.
    """
    if not isinstance(data, dict):
        raise ValueError("document must be a JSON object")
    kind = data.get("kind")
    if kind != expected_kind:
        raise ValueError(f"expected a {expected_kind!r} document, got {kind!r}")
    accepted = accept_versions if accept_versions is not None else (version,)
    found = data.get(version_key)
    if found not in accepted:
        readable = "/".join(str(v) for v in accepted)
        raise ValueError(
            f"unsupported {version_key} {found!r} (this build reads {readable})"
        )
    return found


def _check_document(data: dict[str, Any], expected_kind: str) -> None:
    check_document(data, expected_kind)


# ---------------------------------------------------------------------------
# repro.core.serialization: problems and solutions
# ---------------------------------------------------------------------------

def _stream_entries(problem: OverlayDesignProblem) -> list[dict[str, Any]]:
    return [
        {"name": stream, "bandwidth": problem.stream_bandwidth(stream)}
        for stream in problem.streams
    ]


def _reflector_entries(problem: OverlayDesignProblem) -> list[dict[str, Any]]:
    return [
        {
            "name": reflector,
            "cost": info.cost,
            "fanout": info.fanout,
            "color": info.color,
            "capacity": info.capacity,
        }
        for reflector in problem.reflectors
        for info in [problem.reflector_info(reflector)]
    ]


def _stream_edge_entries(edges: Iterable[StreamEdge]) -> list[dict[str, Any]]:
    return [
        {
            "stream": edge.stream,
            "reflector": edge.reflector,
            "loss_probability": edge.loss_probability,
            "cost": edge.cost,
        }
        for edge in edges
    ]


def problem_to_dict(problem: OverlayDesignProblem) -> dict[str, Any]:
    """Encode a problem as a JSON-compatible dictionary.

    A delivery edge's ``cost`` is its cost for the stream with the smallest
    name, and ``stream_costs`` lists the streams whose cost differs from it.
    """
    streams = problem.streams
    reference = min(streams) if streams else None

    def cost(reflector: str, sink: str, stream: str | None) -> float:
        return problem.delivery_cost(reflector, sink, stream) if streams else 0.0

    return {
        "format_version": FORMAT_VERSION,
        "kind": "overlay-design-problem",
        "name": problem.name,
        "streams": _stream_entries(problem),
        "reflectors": _reflector_entries(problem),
        "sinks": list(problem.sinks),
        "stream_edges": _stream_edge_entries(problem.stream_edges()),
        "delivery_edges": [
            {
                "reflector": reflector,
                "sink": sink,
                "loss_probability": problem.delivery_loss(reflector, sink),
                "cost": base,
                "stream_costs": {
                    stream: cost(reflector, sink, stream)
                    for stream in streams
                    if cost(reflector, sink, stream) != base
                },
                "capacity": problem.arc_capacity(reflector, sink),
            }
            for reflector, sink in problem.delivery_links()
            for base in [cost(reflector, sink, reference)]
        ],
        "demands": [
            {
                "sink": demand.sink,
                "stream": demand.stream,
                "success_threshold": demand.success_threshold,
            }
            for demand in problem.demands
        ],
    }


#: The numeric fields of each problem table, for naming a wrongly typed one.
_NUMERIC_FIELDS = {
    "streams": ("bandwidth",),
    "reflectors": ("cost", "fanout", "capacity"),
    "stream_edges": ("loss_probability", "cost"),
    "delivery_edges": ("loss_probability", "cost", "capacity"),
    "demands": ("success_threshold",),
}


def problem_from_dict(data: dict[str, Any]) -> OverlayDesignProblem:
    """Decode a problem from a dictionary produced by :func:`problem_to_dict`."""
    _check_document(data, "overlay-design-problem")
    current, index = "streams", 0

    def entities(key: str) -> list:
        nonlocal current
        current = key
        value = data.get(key, [])
        if not isinstance(value, list):
            raise DocumentError(f"problem.{key} must be a list, got {type(value).__name__}")
        return value

    problem = OverlayDesignProblem(name=data.get("name", "overlay-design"))
    try:
        for index, stream in enumerate(entities("streams")):
            problem.add_stream(stream["name"], bandwidth=stream.get("bandwidth", 1.0))
        for index, reflector in enumerate(entities("reflectors")):
            # A color keys the ISP groups, so it must be a hashable JSON scalar.
            color = reflector.get("color")
            if isinstance(color, bool) or not isinstance(color, (str, numbers.Real, type(None))):
                raise DocumentError(
                    f"problem.reflectors[{index}].color must be a string, a number or "
                    f"null, got {type(color).__name__}"
                )
            problem.add_reflector(
                reflector["name"],
                cost=reflector["cost"],
                fanout=reflector["fanout"],
                color=color,
                capacity=reflector.get("capacity"),
            )
        for index, sink in enumerate(entities("sinks")):
            problem.add_sink(sink)
        for index, edge in enumerate(entities("stream_edges")):
            problem.add_stream_edge(
                edge["stream"],
                edge["reflector"],
                loss_probability=edge["loss_probability"],
                cost=edge["cost"],
            )
        for index, edge in enumerate(entities("delivery_edges")):
            problem.add_delivery_edge(
                edge["reflector"],
                edge["sink"],
                loss_probability=edge["loss_probability"],
                cost=edge["cost"],
                stream_costs=edge.get("stream_costs") or None,
                capacity=edge.get("capacity"),
            )
        for index, demand in enumerate(entities("demands")):
            problem.add_demand(
                demand["sink"], demand["stream"], success_threshold=demand["success_threshold"]
            )
    except (TypeError, AttributeError) as error:
        # The happy path pays no per-entry check: a wrongly typed entry or
        # field is diagnosed only after a decode loop has tripped over it.
        entry = data[current][index]
        kind = str if current == "sinks" else dict
        if not isinstance(entry, kind):
            noun = "strings" if kind is str else "objects"
            raise DocumentError(
                f"problem.{current}: entries must be {noun}, got {type(entry).__name__}"
            ) from None
        where = f"problem.{current}[{index}]"
        for field in _NUMERIC_FIELDS.get(current, ()):
            value = entry.get(field)
            if not isinstance(value, (numbers.Real, type(None))):
                raise DocumentError(
                    f"{where}.{field} must be a number, got {type(value).__name__}"
                ) from None
        if current == "delivery_edges":
            # Read as the decode loop reads it: an empty value is no override.
            costs = entry.get("stream_costs") or {}
            if not isinstance(costs, dict):
                raise DocumentError(
                    f"{where}.stream_costs must be an object, got {type(costs).__name__}"
                ) from None
            for stream, value in costs.items():
                if not isinstance(value, numbers.Real):
                    raise DocumentError(
                        f"{where}.stream_costs.{stream} must be a number, "
                        f"got {type(value).__name__}"
                    ) from None
        raise DocumentError(f"{where}: {error}") from None
    except KeyError as error:
        # A missing field propagates (the loaders name it); a name the problem
        # does not define is named here, with its entry and field.
        field = _undefined_name_field(problem, data[current][index])
        if field is None:
            raise
        raise DocumentError(f"problem.{current}[{index}].{field}: {error.args[0]}") from None
    return problem


def _undefined_name_field(problem: OverlayDesignProblem, entry: dict) -> str | None:
    """The field of a problem-table entry that names an undefined entity."""
    defined = {"stream": problem.streams, "reflector": problem.reflectors, "sink": problem.sinks}
    for field, names in defined.items():
        if field in entry and entry[field] not in names:
            return field
    costs = entry.get("stream_costs")
    if isinstance(costs, dict) and any(stream not in defined["stream"] for stream in costs):
        return "stream_costs"
    return None


def solution_to_dict(solution: OverlaySolution) -> dict[str, Any]:
    """Encode a solution (without its problem) as a JSON-compatible dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "overlay-solution",
        "problem_name": solution.problem.name,
        "built_reflectors": sorted(solution.built_reflectors),
        "stream_deliveries": sorted(list(pair) for pair in solution.stream_deliveries),
        "assignments": [
            {"sink": sink, "stream": stream, "reflectors": list(reflectors)}
            for (sink, stream), reflectors in sorted(solution.assignments.items())
        ],
        "metadata": {
            key: value
            for key, value in solution.metadata.items()
            if isinstance(value, (str, int, float, bool, type(None)))
        },
        "summary": solution.summary(),
    }


def solution_from_dict(
    data: dict[str, Any], problem: OverlayDesignProblem
) -> OverlaySolution:
    """Decode a solution against its problem instance."""
    _check_document(data, "overlay-solution")
    assignments = {
        (entry["sink"], entry["stream"]): list(entry["reflectors"])
        for entry in data.get("assignments", [])
    }
    solution = OverlaySolution.from_assignments(
        problem, assignments, metadata=dict(data.get("metadata", {}))
    )
    return solution

# ---------------------------------------------------------------------------
# repro.api.types: requests, parameters, evaluations, audits and results
# ---------------------------------------------------------------------------

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

# ---------------------------------------------------------------------------
# repro.incremental.delta: deltas
# ---------------------------------------------------------------------------

def _spec_to_dict(spec: DeliveryEdgeSpec | None) -> dict[str, Any] | None:
    if spec is None:
        return None
    return {
        "loss_probability": spec.loss_probability,
        "cost": spec.cost,
        "stream_costs": {stream: cost for stream, cost in spec.stream_costs},
        "capacity": spec.capacity,
    }


def _name(value: Any, field: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{field} must be a string, got {type(value).__name__}")
    return value


def _number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{field} must be a number, got {type(value).__name__}")
    return value


def _optional_number(value: Any, field: str) -> float | None:
    return None if value is None else _number(value, field)


def _spec_from_dict(data: dict[str, Any] | None) -> DeliveryEdgeSpec | None:
    if data is None:
        return None
    stream_costs = data.get("stream_costs") or {}
    return DeliveryEdgeSpec(
        loss_probability=_number(data["loss_probability"], "loss_probability"),
        cost=_number(data["cost"], "cost"),
        stream_costs=tuple(
            sorted(
                (stream, _number(cost, f"stream_costs.{stream}"))
                for stream, cost in stream_costs.items()
            )
        ),
        capacity=_optional_number(data.get("capacity"), "capacity"),
    )


def _stream_spec_to_dict(spec: StreamEdgeSpec | None) -> dict[str, Any] | None:
    if spec is None:
        return None
    return {"loss_probability": spec.loss_probability, "cost": spec.cost}


def _stream_spec_from_dict(data: dict[str, Any] | None) -> StreamEdgeSpec | None:
    if data is None:
        return None
    return StreamEdgeSpec(
        loss_probability=_number(data["loss_probability"], "loss_probability"),
        cost=_number(data["cost"], "cost"),
    )


def _attachment_to_dict(attachment: SinkAttachment) -> dict[str, Any]:
    return {
        "delivery": [
            {"reflector": reflector, **_spec_to_dict(spec)}
            for reflector, spec in attachment.delivery
        ],
        "demands": [
            {"stream": stream, "success_threshold": threshold}
            for stream, threshold in attachment.demands
        ],
    }


def _attachment_from_dict(data: dict[str, Any]) -> SinkAttachment:
    delivery = tuple(
        sorted(
            (_name(entry["reflector"], "reflector"), _spec_from_dict(entry))
            for entry in data.get("delivery", [])
        )
    )
    demands = tuple(
        sorted(
            (
                _name(entry["stream"], "stream"),
                _number(entry["success_threshold"], "success_threshold"),
            )
            for entry in data.get("demands", [])
        )
    )
    return SinkAttachment(delivery=delivery, demands=demands)


def delta_to_dict(delta: ProblemDelta) -> dict[str, Any]:
    """Encode a delta as a versioned JSON-compatible document."""
    return {
        "format_version": DELTA_FORMAT_VERSION,
        "kind": "problem-delta",
        "sinks_added": {
            sink: _attachment_to_dict(attachment)
            for sink, attachment in sorted(delta.sinks_added.items())
        },
        "sinks_removed": {
            sink: _attachment_to_dict(attachment)
            for sink, attachment in sorted(delta.sinks_removed.items())
        },
        "delivery_changed": [
            {
                "reflector": reflector,
                "sink": sink,
                "old": _spec_to_dict(before),
                "new": _spec_to_dict(after),
            }
            for (reflector, sink), (before, after) in sorted(
                delta.delivery_changed.items()
            )
        ],
        "stream_edges_changed": [
            {
                "stream": stream,
                "reflector": reflector,
                "old": _stream_spec_to_dict(before),
                "new": _stream_spec_to_dict(after),
            }
            for (stream, reflector), (before, after) in sorted(
                delta.stream_edges_changed.items()
            )
        ],
        "demands_changed": [
            {"sink": sink, "stream": stream, "old": before, "new": after}
            for (sink, stream), (before, after) in sorted(delta.demands_changed.items())
        ],
        "structural": list(delta.structural),
    }


def delta_from_dict(data: Any) -> ProblemDelta:
    """Decode a delta from a :func:`delta_to_dict` document.

    Anything else raises :class:`DocumentError` naming the field, e.g.
    ``delta.delivery_changed[0]: missing 'reflector'`` or
    ``delta.sinks_added.edge7: loss_probability must be a number, got str``.
    Names must be strings and costs, probabilities, capacities and
    thresholds numbers, so a decoded delta reaches :func:`apply_delta` well
    typed; whether its names exist in a problem is :func:`apply_delta`'s
    check (``KeyError``).
    """
    try:
        check_document(data, "problem-delta", version=DELTA_FORMAT_VERSION)
    except ValueError as error:
        raise DocumentError(f"delta: {error}") from None
    section, at = "sinks_added", None

    def entries(key: str, kind: type) -> Any:
        nonlocal section, at
        section, at = key, None
        value = data.get(key, kind())
        if not isinstance(value, kind):
            noun = "an object" if kind is dict else "a list"
            raise DocumentError(f"delta.{key} must be {noun}, got {type(value).__name__}")
        return value

    # One try for the whole decode: the loop variable ``at`` still names the
    # entry being decoded when one of them raises.
    try:
        sinks_added = {}
        for at, entry in entries("sinks_added", dict).items():
            sinks_added[at] = _attachment_from_dict(entry)
        sinks_removed = {}
        for at, entry in entries("sinks_removed", dict).items():
            sinks_removed[at] = _attachment_from_dict(entry)
        delivery_changed = {}
        for at, entry in enumerate(entries("delivery_changed", list)):
            key = (_name(entry["reflector"], "reflector"), _name(entry["sink"], "sink"))
            delivery_changed[key] = (
                _spec_from_dict(entry.get("old")),
                _spec_from_dict(entry.get("new")),
            )
        stream_edges_changed = {}
        for at, entry in enumerate(entries("stream_edges_changed", list)):
            key = (_name(entry["stream"], "stream"), _name(entry["reflector"], "reflector"))
            stream_edges_changed[key] = (
                _stream_spec_from_dict(entry.get("old")),
                _stream_spec_from_dict(entry.get("new")),
            )
        demands_changed = {}
        for at, entry in enumerate(entries("demands_changed", list)):
            key = (_name(entry["sink"], "sink"), _name(entry["stream"], "stream"))
            demands_changed[key] = (
                _optional_number(entry.get("old"), "old"),
                _optional_number(entry.get("new"), "new"),
            )
    except (KeyError, TypeError, AttributeError) as error:
        where = f"delta.{section}" + (f"[{at}]" if isinstance(at, int) else f".{at}")
        if isinstance(error, KeyError):
            raise DocumentError(f"{where}: missing {error}") from None
        entry = data[section][at]
        if not isinstance(entry, dict):
            raise DocumentError(
                f"{where}: entries must be objects, got {type(entry).__name__}"
            ) from None
        raise DocumentError(f"{where}: {error}") from None
    structural = entries("structural", list)
    if not all(isinstance(reason, str) for reason in structural):
        raise DocumentError("delta.structural must be a list of strings")
    return ProblemDelta(
        sinks_added=sinks_added,
        sinks_removed=sinks_removed,
        delivery_changed=delivery_changed,
        stream_edges_changed=stream_edges_changed,
        demands_changed=demands_changed,
        structural=tuple(structural),
    )

# ---------------------------------------------------------------------------
# repro.simulation.dsl: the scenario DSL's field checkers
# ---------------------------------------------------------------------------

def _expect_mapping(value: Any, path: str, issues: list[SpecIssue]) -> bool:
    if isinstance(value, Mapping):
        return True
    issues.append(SpecIssue("bad-type", path, f"expected a mapping, got {type(value).__name__}"))
    return False


def _check_float(
    value: Any,
    path: str,
    issues: list[SpecIssue],
    *,
    lo: float,
    hi: float,
    lo_open: bool = False,
    hi_open: bool = False,
) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        issues.append(SpecIssue("bad-type", path, f"expected a number, got {type(value).__name__}"))
        return None
    value = float(value)
    low_ok = value > lo if lo_open else value >= lo
    high_ok = value < hi if hi_open else value <= hi
    if not (low_ok and high_ok):
        left = "(" if lo_open else "["
        right = ")" if hi_open else "]"
        issues.append(
            SpecIssue("bad-value", path, f"must lie in {left}{lo}, {hi}{right}, got {value}")
        )
        return None
    return value


def _check_int(value: Any, path: str, issues: list[SpecIssue], *, lo: int) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int):
        issues.append(
            SpecIssue("bad-type", path, f"expected an integer, got {type(value).__name__}")
        )
        return None
    if value < lo:
        issues.append(SpecIssue("bad-value", path, f"must be >= {lo}, got {value}"))
        return None
    return value


def _check_choice(
    value: Any, path: str, issues: list[SpecIssue], *, choices: Sequence[str]
) -> str | None:
    if not isinstance(value, str):
        issues.append(SpecIssue("bad-type", path, f"expected a string, got {type(value).__name__}"))
        return None
    if value not in choices:
        issues.append(
            SpecIssue("bad-value", path, f"must be one of {', '.join(choices)}; got {value!r}")
        )
        return None
    return value


#: Per-kind parameter validators: name -> (default, checker(value, path, issues)).
_PRIMITIVE_PARAMS: dict[str, dict[str, tuple[Any, Callable[..., Any]]]] = {
    "isp-outage": {
        "outage_probability": (0.25, lambda v, p, i: _check_float(v, p, i, lo=0.0, hi=1.0)),
        "shock_probability": (0.3, lambda v, p, i: _check_float(v, p, i, lo=0.0, hi=1.0)),
        "shock_outage_probability": (0.8, lambda v, p, i: _check_float(v, p, i, lo=0.0, hi=1.0)),
        "duration_fraction": (0.3, lambda v, p, i: _check_float(v, p, i, lo=0.0, hi=1.0, lo_open=True)),
    },
    "regional-outage": {
        "outage_probability": (0.5, lambda v, p, i: _check_float(v, p, i, lo=0.0, hi=1.0)),
        "duration_fraction": (0.25, lambda v, p, i: _check_float(v, p, i, lo=0.0, hi=1.0, lo_open=True)),
        "max_regions": (1, lambda v, p, i: _check_int(v, p, i, lo=1)),
    },
    "multi-metro-disaster": {
        "num_metros": (2, lambda v, p, i: _check_int(v, p, i, lo=1)),
        "duration_fraction": (0.3, lambda v, p, i: _check_float(v, p, i, lo=0.0, hi=1.0, lo_open=True)),
    },
    "congestion-wave": {
        "severity": (0.35, lambda v, p, i: _check_float(v, p, i, lo=0.0, hi=1.0, lo_open=True, hi_open=True)),
        "surge_fraction": (0.4, lambda v, p, i: _check_float(v, p, i, lo=0.0, hi=1.0, lo_open=True)),
        "num_waves": (2, lambda v, p, i: _check_int(v, p, i, lo=1)),
        "target": ("hot-sinks", lambda v, p, i: _check_choice(v, p, i, choices=("hot-sinks", "all-sinks"))),
    },
    "traffic-overlay": {
        "profile": ("diurnal", lambda v, p, i: _check_choice(v, p, i, choices=("diurnal", "flash-crowd"))),
        "severity": (0.3, lambda v, p, i: _check_float(v, p, i, lo=0.0, hi=1.0, lo_open=True, hi_open=True)),
        "peak_fraction": (0.25, lambda v, p, i: _check_float(v, p, i, lo=0.0, hi=1.0, lo_open=True, hi_open=True)),
    },
    "targeted-attack": {
        "top_k": (2, lambda v, p, i: _check_int(v, p, i, lo=1)),
        "duration_fraction": (0.4, lambda v, p, i: _check_float(v, p, i, lo=0.0, hi=1.0, lo_open=True)),
    },
}

PRIMITIVE_KINDS = tuple(sorted(_PRIMITIVE_PARAMS))

_TOP_LEVEL_FIELDS = ("version", "name", "description", "tags", "loss", "primitives")


def _normalize_primitive(
    raw: Any, path: str, issues: list[SpecIssue]
) -> dict[str, Any] | None:
    if not _expect_mapping(raw, path, issues):
        return None
    kind = raw.get("kind")
    if kind is None:
        issues.append(SpecIssue("missing-field", f"{path}.kind", "primitive needs a 'kind'"))
        return None
    if not isinstance(kind, str) or kind not in _PRIMITIVE_PARAMS:
        issues.append(
            SpecIssue(
                "unknown-primitive",
                f"{path}.kind",
                f"unknown primitive kind {kind!r} (known: {', '.join(PRIMITIVE_KINDS)})",
            )
        )
        return None
    params = _PRIMITIVE_PARAMS[kind]
    normalized: dict[str, Any] = {"kind": kind}
    ok = True
    for name, (default, checker) in params.items():
        if name in raw:
            value = checker(raw[name], f"{path}.{name}", issues)
            if value is None:
                ok = False
                continue
            normalized[name] = value
        else:
            normalized[name] = default
    for name in raw:
        if name != "kind" and name not in params:
            issues.append(
                SpecIssue(
                    "unknown-field",
                    f"{path}.{name}",
                    f"primitive {kind!r} takes {', '.join(params)}; {name!r} is not one of them",
                )
            )
            ok = False
    return normalized if ok else None


def normalize_scenario_spec(data: Any, *, source: str = "<memory>") -> dict[str, Any]:
    """Validate ``data`` against schema v1 and return the normalized document.

    Normalization fills every optional field with its default, so two
    documents that differ only in spelled-out defaults normalize (and
    therefore seed their RNG streams) identically.  Raises
    :class:`ScenarioValidationError` listing *all* problems found.
    """
    issues: list[SpecIssue] = []
    if not _expect_mapping(data, "$", issues):
        raise ScenarioValidationError(source, issues)

    version = data.get("version")
    if version is None:
        issues.append(SpecIssue("missing-field", "$.version", "scenario needs 'version: 1'"))
    elif version != DSL_SCHEMA_VERSION:
        issues.append(
            SpecIssue(
                "bad-version",
                "$.version",
                f"unsupported schema version {version!r} (this build reads {DSL_SCHEMA_VERSION})",
            )
        )

    name = data.get("name")
    if name is None:
        issues.append(SpecIssue("missing-field", "$.name", "scenario needs a 'name'"))
        name = ""
    elif not isinstance(name, str):
        issues.append(SpecIssue("bad-type", "$.name", "name must be a string"))
        name = ""
    else:
        if not name or not all(c.islower() or c.isdigit() or c == "-" for c in name) or (
            name[0] == "-" or name[-1] == "-"
        ):
            issues.append(
                SpecIssue(
                    "bad-value",
                    "$.name",
                    f"name must match [a-z0-9][a-z0-9-]*[a-z0-9] (got {name!r})",
                )
            )
        if name in _COMPAT_STREAM_KEYS:
            issues.append(
                SpecIssue(
                    "reserved-name",
                    "$.name",
                    f"{name!r} is a built-in scenario and cannot be redefined",
                )
            )

    description = data.get("description")
    if description is None:
        issues.append(SpecIssue("missing-field", "$.description", "scenario needs a 'description'"))
        description = ""
    elif not isinstance(description, str):
        issues.append(SpecIssue("bad-type", "$.description", "description must be a string"))
        description = ""

    tags = data.get("tags", [])
    if not isinstance(tags, (list, tuple)) or not all(isinstance(t, str) for t in tags):
        issues.append(SpecIssue("bad-type", "$.tags", "tags must be a list of strings"))
        tags = []

    loss = data.get("loss", "bernoulli")
    if loss not in _LOSS_MODELS:
        issues.append(
            SpecIssue(
                "bad-value",
                "$.loss",
                f"loss must be one of {', '.join(sorted(_LOSS_MODELS))}; got {loss!r}",
            )
        )
        loss = "bernoulli"

    raw_primitives = data.get("primitives")
    primitives: list[dict[str, Any]] = []
    if raw_primitives is None:
        issues.append(
            SpecIssue("missing-field", "$.primitives", "scenario needs a 'primitives' list")
        )
    elif not isinstance(raw_primitives, (list, tuple)):
        issues.append(SpecIssue("bad-type", "$.primitives", "primitives must be a list"))
    elif not raw_primitives:
        issues.append(
            SpecIssue("bad-value", "$.primitives", "primitives must not be empty")
        )
    else:
        for index, raw in enumerate(raw_primitives):
            normalized = _normalize_primitive(raw, f"$.primitives[{index}]", issues)
            if normalized is not None:
                primitives.append(normalized)

    for field_name in data:
        if field_name not in _TOP_LEVEL_FIELDS:
            issues.append(
                SpecIssue(
                    "unknown-field",
                    f"$.{field_name}",
                    f"scenario fields are {', '.join(_TOP_LEVEL_FIELDS)}",
                )
            )

    if issues:
        raise ScenarioValidationError(source, issues)
    return {
        "version": DSL_SCHEMA_VERSION,
        "name": name,
        "description": description,
        "tags": list(tags),
        "loss": loss,
        "primitives": primitives,
    }
