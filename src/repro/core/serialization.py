"""JSON (de)serialization of problems and solutions.

A deployable overlay designer needs its inputs (measured loss rates, costs,
fanouts, demand sets) and outputs (which reflectors serve which edgeservers)
to cross process boundaries: the measurement pipeline produces the instance,
the designer runs periodically ("our algorithm is reasonably fast so it can be
rerun as often as needed", Section 1.3), and the resulting design is pushed to
the entrypoints and reflectors.  This module provides a stable, versioned JSON
encoding for :class:`OverlayDesignProblem` and :class:`OverlaySolution` and is
what the CLI (:mod:`repro.cli`) reads and writes.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution

#: Format version written into every document; bump on breaking changes.
FORMAT_VERSION = 1


class DocumentError(ValueError):
    """A problem, solution or request document that cannot be read or decoded.

    Raised by :func:`load_problem` and :func:`load_solution` for a missing or
    unreadable file, non-JSON content, a wrong ``kind``/version, or a missing
    field; the message names the path and the cause.  The decoders raise it
    directly for a field of the wrong JSON type, naming the field (e.g.
    ``problem.streams must be a list``).
    """


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


def _stream_edge_entries(problem: OverlayDesignProblem) -> list[dict[str, Any]]:
    return [
        {
            "stream": edge.stream,
            "reflector": edge.reflector,
            "loss_probability": edge.loss_probability,
            "cost": edge.cost,
        }
        for edge in problem.stream_edges()
    ]


def problem_to_dict(problem: OverlayDesignProblem) -> dict[str, Any]:
    """Encode a problem as a JSON-compatible dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "overlay-design-problem",
        "name": problem.name,
        "streams": _stream_entries(problem),
        "reflectors": _reflector_entries(problem),
        "sinks": list(problem.sinks),
        "stream_edges": _stream_edge_entries(problem),
        "delivery_edges": [
            {
                "reflector": reflector,
                "sink": sink,
                "loss_probability": problem.delivery_loss(reflector, sink),
                "cost": problem.delivery_cost(reflector, sink, problem.streams[0])
                if problem.streams
                else 0.0,
                "stream_costs": {
                    stream: problem.delivery_cost(reflector, sink, stream)
                    for stream in problem.streams
                    if problem.delivery_cost(reflector, sink, stream)
                    != (
                        problem.delivery_cost(reflector, sink, problem.streams[0])
                        if problem.streams
                        else 0.0
                    )
                },
                "capacity": problem.arc_capacity(reflector, sink),
            }
            for reflector, sink in problem.delivery_links()
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
            problem.add_reflector(
                reflector["name"],
                cost=reflector["cost"],
                fanout=reflector["fanout"],
                color=reflector.get("color"),
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
    except TypeError as error:
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
    if any(stream not in defined["stream"] for stream in entry.get("stream_costs") or ()):
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


def dump_problem(problem: OverlayDesignProblem, path: str) -> None:
    """Write a problem to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(problem_to_dict(problem), handle, indent=2, sort_keys=True)


def _load_document(path: str, decode):
    """Decode the JSON file at ``path``; every failure becomes a DocumentError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return decode(json.load(handle))
    except KeyError as error:
        raise DocumentError(f"cannot read {path}: missing field {error}") from error
    except (OSError, ValueError, TypeError) as error:
        raise DocumentError(f"cannot read {path}: {error}") from error


def load_problem(path: str) -> OverlayDesignProblem:
    """Read a problem from a JSON file (:class:`DocumentError` if unreadable)."""
    return _load_document(path, problem_from_dict)


def dump_solution(solution: OverlaySolution, path: str) -> None:
    """Write a solution to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(solution_to_dict(solution), handle, indent=2, sort_keys=True)


def load_solution(path: str, problem: OverlayDesignProblem) -> OverlaySolution:
    """Read a solution from a JSON file (needs the matching problem).

    Raises :class:`DocumentError` if the file is unreadable or malformed.
    """
    return _load_document(path, lambda data: solution_from_dict(data, problem))


def _canonical(obj: Any, places: int = 9) -> Any:
    """``obj`` with floats rounded to ``places`` and dict keys as sorted strings."""
    if isinstance(obj, float):
        return round(float(obj), places)
    if isinstance(obj, dict):
        return {str(k): _canonical(v, places) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v, places) for v in obj]
    return obj


def canonical_digest(document: Any, *, places: int = 9, length: int = 16) -> str:
    """Stable short digest of a JSON-compatible document.

    Floats are rounded to ``places`` decimal places and dictionary keys are
    sorted before hashing, so the digest is insensitive to key order and to
    float noise that does not change a value's rounded form -- the same
    convention the golden regression corpus uses.  Noise can still move a
    value across a rounding boundary (``0.1234567884999`` and
    ``0.1234567885001`` round apart at 9 places), and then the digest
    changes.  Two documents with equal digests are, for regression purposes,
    the same document.
    """
    payload = json.dumps(_canonical(document, places), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:length]


def _text(value: Any) -> str:
    """Canonical JSON text of one value: the bytes :func:`canonical_digest` writes."""
    return json.dumps(_canonical(value), sort_keys=True)


def _float_texts(values: Sequence[float]) -> list[str]:
    """Canonical text of each float in ``values``, in order.

    ``json`` writes the whole rounded column in one call; no float's text
    contains ``", "``, so the column splits back into one text per value.
    """
    if not values:
        return []
    return json.dumps(list(map(round, values, repeat(9))))[1:-1].split(", ")


def _sorted_texts(template: str, *columns) -> list[str]:
    """Fill ``template`` once per row of ``columns``; the texts, sorted."""
    return sorted(map(template.__mod__, zip(*columns)))


# problem_to_dict's delivery-edge and demand entries and its document, keys
# in sorted order (tests/test_digest.py holds them to the old encoder).
_DELIVERY_EDGE = (
    '{"capacity": %s, "cost": %s, "loss_probability": %s, "reflector": %s, '
    '"sink": %s, "stream_costs": %s}'
)
_DEMAND = '{"sink": %s, "stream": %s, "success_threshold": %s}'
_PROBLEM = (
    '{"delivery_edges": [%s], "demands": [%s], "format_version": %d, '
    '"kind": "overlay-design-problem", "reflectors": [%s], "sinks": [%s], '
    '"stream_edges": [%s], "streams": [%s]}'
)


def _delivery_texts(
    problem: OverlayDesignProblem, streams: list[str], names: dict[str, str]
) -> list[str]:
    """Sorted canonical texts of the delivery links, as problem_to_dict writes them.

    A link's ``cost`` is its cost for the first stream and ``stream_costs``
    lists the streams whose rounded cost differs from it (so a NaN cost lists
    every stream).  problem_to_dict compares unrounded costs; comparing the
    rounded ones keeps float noise out of the digest.  Only links with
    per-stream overrides, or a NaN cost, need that per-stream pass; the rest
    write their base cost and ``{}``.
    """
    links = problem.delivery_link_data()
    if not links:
        return []
    reflectors, sinks, losses, costs = zip(*links)
    stream_costs = ["{}"] * len(links)
    if not streams:
        costs = (0.0,) * len(links)
    else:
        overrides = problem.delivery_stream_cost_overrides()
        if overrides or any(map(math.isnan, costs)):
            costs = list(costs)
            for index, (reflector, sink, _loss, base) in enumerate(links):
                own = overrides.get((reflector, sink), {})
                per_stream = {stream: own.get(stream, base) for stream in streams}
                cost = costs[index] = per_stream[streams[0]]
                differing = {
                    k: v for k, v in per_stream.items() if round(v, 9) != round(cost, 9)
                }
                if differing:
                    stream_costs[index] = _text(differing)
    capacities = problem.arc_capacities()
    capacity_texts = (
        [_text(capacities.get(key)) for key in zip(reflectors, sinks)]
        if capacities
        else ["null"] * len(links)
    )
    return _sorted_texts(
        _DELIVERY_EDGE,
        capacity_texts,
        _float_texts(costs),
        _float_texts(losses),
        map(names.__getitem__, reflectors),
        map(names.__getitem__, sinks),
        stream_costs,
    )


def _problem_digest(problem: OverlayDesignProblem) -> str:
    """One pass over the problem's tables; see :func:`problem_digest`."""
    streams = problem.streams
    sinks = problem.sinks
    # Each name's JSON text, escaped once however often the name is used.
    names = {
        name: encode_basestring_ascii(name) if isinstance(name, str) else _text(name)
        for name in streams + problem.reflectors + sinks
    }
    demands = problem.demands
    demand_texts = _sorted_texts(
        _DEMAND,
        [names[demand.sink] for demand in demands],
        [names[demand.stream] for demand in demands],
        _float_texts([demand.success_threshold for demand in demands]),
    )
    text = _PROBLEM % (
        ", ".join(_delivery_texts(problem, streams, names)),
        ", ".join(demand_texts),
        FORMAT_VERSION,
        ", ".join(sorted(map(_text, _reflector_entries(problem)))),
        ", ".join(map(names.__getitem__, sorted(sinks))),
        ", ".join(sorted(map(_text, _stream_edge_entries(problem)))),
        ", ".join(sorted(map(_text, _stream_entries(problem)))),
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def problem_digest(problem: OverlayDesignProblem) -> str:
    """Canonical content digest of a problem (name excluded).

    Ignores the instance's ``name`` and the order entities were added in:
    two problems describing the same network (same streams, reflectors,
    sinks, edges, demands) digest identically even if they were built in
    different orders -- which is what makes the digest useful for checking
    delta round-trips (``apply(apply(P, d), invert(d)) == P``).  One order
    still counts: with per-stream cost overrides, a link's costs are written
    relative to the first stream added, as :func:`problem_to_dict` writes
    them.

    The digest hashes :func:`problem_to_dict` without the name, with floats
    rounded as in :func:`canonical_digest`: each entity list is sorted by its
    entries' rounded text, the sinks by name, and a link lists a per-stream
    cost only when it differs from the link's cost after rounding.  It is
    written in one pass over the problem's tables rather than through that
    document.  Float noise is ignored when every value keeps its 9-place
    rounded form; a value that crosses a rounding boundary changes the
    digest.

    The digest is memoised on the problem object; every ``add_*`` method of
    :class:`OverlayDesignProblem` clears it.
    """
    digest = problem._digest
    if digest is None:
        digest = problem._digest = _problem_digest(problem)
    return digest


def solution_digest(solution: OverlaySolution) -> str:
    """Canonical digest of a solution's observable outcome.

    Covers the assignments, builds, deliveries, and cost summary -- not the
    free-form metadata (which records provenance such as timings or the
    algorithm label, and legitimately differs between equivalent runs).
    """
    document = solution_to_dict(solution)
    document.pop("metadata", None)
    document.pop("problem_name", None)
    return canonical_digest(document)


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
