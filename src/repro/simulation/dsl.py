"""The composable scenario DSL: failure scenarios as data, not code.

A scenario file (YAML or JSON) composes *primitives* -- parameterized
building blocks over the correlated-failure samplers of
:mod:`repro.simulation.failures`, the load-curve shapes of
:mod:`repro.simulation.traces`, and a design-aware ``targeted-attack`` --
into one named :class:`~repro.simulation.scenarios.FailureScenario` that
registers into the ordinary catalogue.  Everything that sweeps the catalogue
(``repro simulate --scenario``, :class:`repro.api.EvaluationSpec`, the R2/A1
benches) picks compiled scenarios up unchanged.

Schema (version 1)
------------------
::

    version: 1                     # required, must be 1
    name: metro-quake              # required, [a-z0-9][a-z0-9-]*, not a built-in
    description: "..."             # required
    tags: [correlated, disaster]   # optional
    loss: bernoulli                # or gilbert-elliott (default bernoulli)
    primitives:                    # required, non-empty list
      - kind: multi-metro-disaster
        num_metros: 2
      - kind: congestion-wave
        severity: 0.4

Primitive kinds and their parameters (all optional, shown with defaults):

``isp-outage``
    ISP-wide outages with a common shock.  ``outage_probability`` (0.25),
    ``shock_probability`` (0.3), ``shock_outage_probability`` (0.8),
    ``duration_fraction`` (0.3).
``regional-outage``
    Independent topology-cluster blackouts.  ``outage_probability`` (0.5),
    ``duration_fraction`` (0.25), ``max_regions`` (1).
``multi-metro-disaster``
    A *correlated* disaster: ``num_metros`` (2) clusters go dark over one
    shared window of ``duration_fraction`` (0.3) of the session.
``congestion-wave``
    Flash-crowd congestion waves.  ``severity`` (0.35), ``surge_fraction``
    (0.4), ``num_waves`` (2), ``target`` (``hot-sinks`` | ``all-sinks``).
``traffic-overlay``
    Converts a load curve from :mod:`repro.simulation.traces` into
    congestion on the hot edge during the curve's peak segments.
    ``profile`` (``diurnal`` | ``flash-crowd``), ``severity`` (0.3),
    ``peak_fraction`` (0.25).
``targeted-attack``
    Crashes the ``top_k`` (2) highest-betweenness reflectors of the design
    under test over one shared window of ``duration_fraction`` (0.4); with
    no design in the context it falls back to the static candidate-count
    proxy (see
    :func:`~repro.simulation.scenarios.reflector_betweenness`).

Composition semantics
---------------------
The realized schedule is the union of every primitive's events, and it is
**order-insensitive**: permuting the ``primitives`` list never changes the
realization.  Each primitive draws from its own RNG stream keyed by
``(base, digest(normalized primitive), occurrence)`` -- ``base`` is a single
draw from the scenario context's generator, the digest covers the
primitive's kind and normalized parameters, and ``occurrence`` counts
earlier primitives with the *same* digest (so duplicated primitives get
independent streams while remaining permutation-safe).  Events are then
sorted canonically, and overlapping congestion combines commutatively
(``1 - prod(1 - severity)``) inside the engine, so metrics are a pure
function of the primitive *multiset*.

Validation reports **named errors**: every problem is a
:class:`SpecIssue` with a stable ``code`` (``missing-field``,
``bad-type``, ``bad-value``, ``unknown-field``, ``unknown-primitive``,
``reserved-name``, ``bad-version``) and a path into the document, and
:class:`ScenarioValidationError` carries the full list -- authoring errors
surface all at once, not one per run.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.schema import STRING, Domain, choice, integer, number
from repro.network.loss import BernoulliLossModel, GilbertElliottLossModel, LossModel
from repro.simulation.failures import (
    FailureEvent,
    FailureSchedule,
    _sample_window,
    sample_flash_crowd_congestion,
    sample_isp_outage_schedule,
    sample_regional_outage_schedule,
)
from repro.simulation.scenarios import (
    _COMPAT_STREAM_KEYS,
    _REGISTRY,
    FailureScenario,
    ScenarioContext,
    ScenarioRealization,
    _ensure_shipped_scenarios,
    register_failure_scenario,
    top_betweenness_reflectors,
)
from repro.simulation.traces import diurnal_intensity, flash_crowd_intensity

SCHEMA_VERSION = 1

_LOSS_MODELS: dict[str, Callable[[], LossModel]] = {
    "bernoulli": BernoulliLossModel,
    "gilbert-elliott": GilbertElliottLossModel,
}


# ---------------------------------------------------------------------------
# Validation: named errors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecIssue:
    """One named validation problem: a stable code, a document path, a message."""

    code: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message} [{self.code}]"


class ScenarioValidationError(ValueError):
    """A scenario document failed schema validation.

    ``issues`` holds every problem found (validation does not stop at the
    first), ``source`` names the file (or ``"<memory>"`` for dicts).
    """

    def __init__(self, source: str, issues: Sequence[SpecIssue]):
        self.source = source
        self.issues = list(issues)
        detail = "; ".join(str(issue) for issue in self.issues)
        super().__init__(f"invalid scenario {source}: {detail}")


def _checked(domain: Domain, value: Any, path: str, issues: list[SpecIssue]) -> Any:
    """``value`` read through ``domain``; ``None`` with the issue recorded if outside it."""
    issue = domain.issue(value)
    if issue is not None:
        issues.append(SpecIssue(issue[0], path, issue[1]))
        return None
    return domain.decode(value, path)


_MAPPING = Domain("a mapping", lambda value: isinstance(value, Mapping))
_TAGS = Domain(
    "a list of strings",
    lambda value: isinstance(value, (list, tuple)) and all(isinstance(t, str) for t in value),
)
_LOSS = choice(*sorted(_LOSS_MODELS))

#: Fractions of a session or probabilities: numbers in [0, 1] (ends open as
#: named), read as floats so spelled-out ints normalize like their floats.
_PROBABILITY = number(0.0, 1.0, cast=float)
_FRACTION = number(0.0, 1.0, low_open=True, cast=float)
_SEVERITY = number(0.0, 1.0, low_open=True, high_open=True, cast=float)
_COUNT = integer(1)

#: Per-kind parameters: name -> (default, domain).
_PRIMITIVE_PARAMS: dict[str, dict[str, tuple[Any, Domain]]] = {
    "isp-outage": {
        "outage_probability": (0.25, _PROBABILITY),
        "shock_probability": (0.3, _PROBABILITY),
        "shock_outage_probability": (0.8, _PROBABILITY),
        "duration_fraction": (0.3, _FRACTION),
    },
    "regional-outage": {
        "outage_probability": (0.5, _PROBABILITY),
        "duration_fraction": (0.25, _FRACTION),
        "max_regions": (1, _COUNT),
    },
    "multi-metro-disaster": {
        "num_metros": (2, _COUNT),
        "duration_fraction": (0.3, _FRACTION),
    },
    "congestion-wave": {
        "severity": (0.35, _SEVERITY),
        "surge_fraction": (0.4, _FRACTION),
        "num_waves": (2, _COUNT),
        "target": ("hot-sinks", choice("hot-sinks", "all-sinks")),
    },
    "traffic-overlay": {
        "profile": ("diurnal", choice("diurnal", "flash-crowd")),
        "severity": (0.3, _SEVERITY),
        "peak_fraction": (0.25, _SEVERITY),
    },
    "targeted-attack": {
        "top_k": (2, _COUNT),
        "duration_fraction": (0.4, _FRACTION),
    },
}

PRIMITIVE_KINDS = tuple(sorted(_PRIMITIVE_PARAMS))


def _normalize_primitive(raw: Any, path: str, issues: list[SpecIssue]) -> dict[str, Any] | None:
    """``raw`` with every parameter filled in; its issues go to ``issues``."""
    if _checked(_MAPPING, raw, path, issues) is None:
        return None
    kind = raw.get("kind")
    if kind is None:
        issues.append(SpecIssue("missing-field", f"{path}.kind", "primitive needs a 'kind'"))
        return None
    if not isinstance(kind, str) or kind not in _PRIMITIVE_PARAMS:
        known = ", ".join(PRIMITIVE_KINDS)
        message = f"unknown primitive kind {kind!r} (known: {known})"
        issues.append(SpecIssue("unknown-primitive", f"{path}.kind", message))
        return None
    params = _PRIMITIVE_PARAMS[kind]
    normalized: dict[str, Any] = {"kind": kind}
    for name, (default, domain) in params.items():
        normalized[name] = default
        if name in raw:
            normalized[name] = _checked(domain, raw[name], f"{path}.{name}", issues)
    for name in raw:
        if name != "kind" and name not in params:
            message = f"primitive {kind!r} takes {', '.join(params)}; {name!r} is not one of them"
            issues.append(SpecIssue("unknown-field", f"{path}.{name}", message))
    return normalized


def _is_name(name: str) -> bool:
    return bool(name) and "-" not in (name[0], name[-1]) and all(
        c.islower() or c.isdigit() or c == "-" for c in name
    )


_NAME = Domain("a string", STRING.accepts, "a name like [a-z0-9][a-z0-9-]*[a-z0-9]", _is_name)
_PRIMITIVES = Domain("a list", lambda value: isinstance(value, (list, tuple)), "non-empty", bool)

#: The fields after ``version``: name -> (domain, default; ``None`` if required).
_TOP_LEVEL = {
    "name": (_NAME, None),
    "description": (STRING, None),
    "tags": (_TAGS, []),
    "loss": (_LOSS, "bernoulli"),
    "primitives": (_PRIMITIVES, None),
}


def normalize_scenario_spec(data: Any, *, source: str = "<memory>") -> dict[str, Any]:
    """Validate ``data`` against schema v1 and return the normalized document.

    Normalization fills every optional field with its default, so two
    documents that differ only in spelled-out defaults normalize (and
    therefore seed their RNG streams) identically.  Raises
    :class:`ScenarioValidationError` listing *all* problems found.
    """
    issues: list[SpecIssue] = []
    if _checked(_MAPPING, data, "$", issues) is None:
        raise ScenarioValidationError(source, issues)
    version = data.get("version")
    if version is None:
        issues.append(SpecIssue("missing-field", "$.version", "scenario needs 'version: 1'"))
    elif version != SCHEMA_VERSION:
        message = f"unsupported schema version {version!r} (this build reads {SCHEMA_VERSION})"
        issues.append(SpecIssue("bad-version", "$.version", message))
    spec: dict[str, Any] = {"version": SCHEMA_VERSION}
    for field_name, (domain, default) in _TOP_LEVEL.items():
        value = data.get(field_name, default)
        if value is None and default is None:
            issues.append(
                SpecIssue("missing-field", f"$.{field_name}", f"scenario needs a {field_name!r}")
            )
        else:
            spec[field_name] = _checked(domain, value, f"$.{field_name}", issues)
    if spec.get("name") in _COMPAT_STREAM_KEYS:
        message = f"{spec['name']!r} is a built-in scenario and cannot be redefined"
        issues.append(SpecIssue("reserved-name", "$.name", message))
    spec["primitives"] = [
        _normalize_primitive(raw, f"$.primitives[{index}]", issues)
        for index, raw in enumerate(spec.get("primitives") or ())
    ]
    for field_name in data:
        if field_name != "version" and field_name not in _TOP_LEVEL:
            message = f"scenario fields are {', '.join(['version', *_TOP_LEVEL])}"
            issues.append(SpecIssue("unknown-field", f"$.{field_name}", message))
    if issues:
        raise ScenarioValidationError(source, issues)
    return {**spec, "tags": list(spec["tags"])}


# ---------------------------------------------------------------------------
# Primitive realizers
# ---------------------------------------------------------------------------


def _primitive_digest(primitive: Mapping[str, Any]) -> int:
    """Stable 64-bit digest of a normalized primitive (kind + parameters)."""
    canonical = json.dumps(primitive, sort_keys=True, separators=(",", ":"))
    return int.from_bytes(hashlib.sha256(canonical.encode("utf-8")).digest()[:8], "big")


def _realize_isp_outage(
    params: Mapping[str, Any], context: ScenarioContext, rng: np.random.Generator
) -> list[FailureEvent]:
    isps = sorted({isp for isp in context.node_isp.values() if isp is not None})
    schedule = sample_isp_outage_schedule(
        isps,
        context.num_packets,
        rng,
        outage_probability=params["outage_probability"],
        shock_probability=params["shock_probability"],
        shock_outage_probability=params["shock_outage_probability"],
        duration_fraction=params["duration_fraction"],
    )
    return list(schedule.events)


def _realize_regional_outage(
    params: Mapping[str, Any], context: ScenarioContext, rng: np.random.Generator
) -> list[FailureEvent]:
    schedule = sample_regional_outage_schedule(
        context.clusters,
        context.num_packets,
        rng,
        outage_probability=params["outage_probability"],
        duration_fraction=params["duration_fraction"],
        max_regions=params["max_regions"],
    )
    return list(schedule.events)


def _realize_multi_metro_disaster(
    params: Mapping[str, Any], context: ScenarioContext, rng: np.random.Generator
) -> list[FailureEvent]:
    # Unlike regional-outage's independent strikes, a disaster takes several
    # metros down over ONE shared window -- the correlated event the paper's
    # ISP-diversity constraints are supposed to survive.
    names = sorted(context.clusters)
    count = min(params["num_metros"], len(names))
    if count == 0:
        return []
    chosen = rng.choice(len(names), size=count, replace=False)
    start, end = _sample_window(context.num_packets, rng, params["duration_fraction"])
    events = []
    for index in sorted(int(i) for i in chosen):
        for node in context.clusters[names[index]]:
            events.append(FailureEvent("node_outage", node, start, end))
    return events


def _realize_congestion_wave(
    params: Mapping[str, Any], context: ScenarioContext, rng: np.random.Generator
) -> list[FailureEvent]:
    if params["target"] == "all-sinks":
        sinks: Sequence[str] = sorted(context.problem.sinks)
    else:
        sinks = context.hot_sinks
    schedule = sample_flash_crowd_congestion(
        sinks,
        context.num_packets,
        rng,
        severity=params["severity"],
        surge_fraction=params["surge_fraction"],
        num_waves=params["num_waves"],
    )
    return list(schedule.events)


def _realize_traffic_overlay(
    params: Mapping[str, Any], context: ScenarioContext, rng: np.random.Generator
) -> list[FailureEvent]:
    # Map a load curve onto congestion: during the curve's top
    # ``peak_fraction`` segments the hot edge drops extra packets, scaled by
    # how far above the threshold the audience sits.
    num_packets = context.num_packets
    buckets = max(1, min(48, num_packets))
    if params["profile"] == "flash-crowd":
        curve = flash_crowd_intensity(buckets)
    else:
        curve = diurnal_intensity(buckets)
    threshold = float(np.quantile(curve, 1.0 - params["peak_fraction"]))
    peak = curve >= threshold
    peak_max = float(curve.max()) or 1.0
    events: list[FailureEvent] = []
    bucket = 0
    while bucket < buckets:
        if not peak[bucket]:
            bucket += 1
            continue
        run_start = bucket
        while bucket < buckets and peak[bucket]:
            bucket += 1
        start = run_start * num_packets // buckets
        end = bucket * num_packets // buckets
        scale = float(curve[run_start:bucket].mean()) / peak_max
        for sink in context.hot_sinks:
            severity = params["severity"] * scale * float(rng.uniform(0.85, 1.15))
            severity = float(np.clip(severity, 0.01, 0.99))
            events.append(FailureEvent("link_congestion", sink, start, end, severity=severity))
    return events


def _realize_targeted_attack(
    params: Mapping[str, Any], context: ScenarioContext, rng: np.random.Generator
) -> list[FailureEvent]:
    targets = top_betweenness_reflectors(context.problem, context.solution, params["top_k"])
    if not targets:
        return []
    start, end = _sample_window(context.num_packets, rng, params["duration_fraction"])
    return [FailureEvent("reflector_crash", reflector, start, end) for reflector in targets]


_REALIZERS: dict[str, Callable[..., list[FailureEvent]]] = {
    "isp-outage": _realize_isp_outage,
    "regional-outage": _realize_regional_outage,
    "multi-metro-disaster": _realize_multi_metro_disaster,
    "congestion-wave": _realize_congestion_wave,
    "traffic-overlay": _realize_traffic_overlay,
    "targeted-attack": _realize_targeted_attack,
}


def _event_sort_key(event: FailureEvent) -> tuple[str, str, int, int, float]:
    return (event.kind, event.target, event.start, event.end, event.severity)


# ---------------------------------------------------------------------------
# Compilation and registration
# ---------------------------------------------------------------------------

#: Normalized spec + source of every scenario compiled this process, by
#: scenario object, for ``repro scenarios --show``, the serving layer's sweep
#: keys and round-trip tests.
_COMPILED_SPECS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def compiled_scenario_spec(name: str) -> dict[str, Any] | None:
    """The normalized spec of the DSL scenario registered as ``name``.

    ``None`` for a scenario registered from Python (the built-ins) and for an
    unknown name.  Compiling a file without registering it changes nothing
    here: the record is that of the scenario the catalogue runs.
    """
    _ensure_shipped_scenarios()
    scenario = _REGISTRY.get(name)
    record = _COMPILED_SPECS.get(scenario) if scenario is not None else None
    return None if record is None else json.loads(json.dumps(record))


def compile_scenario(data: Any, *, source: str = "<memory>") -> FailureScenario:
    """Validate ``data`` and compile it to a registrable :class:`FailureScenario`.

    The realize closure draws one base integer from the context's generator,
    then gives every primitive an independent stream keyed by its normalized
    digest and occurrence index, making the realization order-insensitive
    (see the module docstring).
    """
    spec = normalize_scenario_spec(data, source=source)
    loss_factory = _LOSS_MODELS[spec["loss"]]
    primitives: list[dict[str, Any]] = spec["primitives"]

    def realize(context: ScenarioContext) -> ScenarioRealization:
        base = int(context.rng.integers(0, 2**63))
        occurrence: dict[int, int] = {}
        events: list[FailureEvent] = []
        for primitive in primitives:
            digest = _primitive_digest(primitive)
            occ = occurrence.get(digest, 0)
            occurrence[digest] = occ + 1
            prim_rng = np.random.default_rng([base, digest, occ])
            events.extend(_REALIZERS[primitive["kind"]](primitive, context, prim_rng))
        events.sort(key=_event_sort_key)
        return ScenarioRealization(loss_factory(), FailureSchedule(events))

    scenario = FailureScenario(
        name=spec["name"],
        description=spec["description"],
        realize=realize,
        tags=tuple(spec["tags"]),
    )
    _COMPILED_SPECS[scenario] = {"source": source, "spec": spec}
    return scenario


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------


def load_scenario_data(path: str | Path) -> Any:
    """Parse a scenario document from ``path`` (JSON, or YAML if installed)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise ScenarioValidationError(
                str(path),
                [
                    SpecIssue(
                        "yaml-unavailable",
                        "$",
                        "PyYAML is not installed; write the scenario as JSON instead",
                    )
                ],
            ) from None
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioValidationError(
                str(path), [SpecIssue("parse-error", "$", f"YAML parse error: {exc}")]
            ) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError(
            str(path), [SpecIssue("parse-error", "$", f"JSON parse error: {exc}")]
        ) from None


def load_scenario_file(path: str | Path) -> FailureScenario:
    """Parse + validate + compile one scenario file (without registering it)."""
    return compile_scenario(load_scenario_data(path), source=str(path))


def register_scenario_file(path: str | Path) -> FailureScenario:
    """Compile ``path`` and register the result into the catalogue."""
    return register_failure_scenario(load_scenario_file(path))


def register_scenario_files(paths: Iterable[str | Path]) -> list[FailureScenario]:
    return [register_scenario_file(path) for path in paths]


def shipped_scenario_paths() -> list[Path]:
    """The scenario files shipped inside ``repro.simulation.scenarios``."""
    package = resources.files("repro.simulation.scenarios")
    paths = [Path(str(entry)) for entry in package.iterdir() if entry.name.endswith(".json")]
    return sorted(paths, key=lambda p: p.name)


def register_shipped_scenarios() -> list[FailureScenario]:
    """Compile and register every shipped scenario file (idempotent)."""
    return register_scenario_files(shipped_scenario_paths())
