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
from typing import Any, Collection, Iterable, Iterator, NamedTuple, Sequence

from repro.core.problem import Demand, OverlayDesignProblem, StreamEdge, _spliced
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


class _NameTexts(dict):
    """Each name's JSON text, escaped once however often the name is used."""

    def __missing__(self, name: Any) -> str:
        text = self[name] = encode_basestring_ascii(name) if isinstance(name, str) else _text(name)
        return text


def _link_texts(
    links: Sequence[tuple[str, str, float, float]],
    streams: list[str],
    names: dict[str, str],
    overrides: dict[tuple[str, str], dict[str, float]],
    capacities: dict[tuple[str, str], float],
) -> Iterator[str]:
    """Canonical texts of the links, as problem_to_dict writes them, in order.

    ``links`` holds ``(reflector, sink, loss, base cost)`` rows.  A link's
    ``cost`` is its cost for the smallest stream name and ``stream_costs``
    lists the streams whose rounded cost differs from it (so a NaN cost
    lists every stream).  problem_to_dict compares unrounded costs; comparing
    the rounded ones keeps float noise out of the digest.  Only links with
    per-stream overrides, or a NaN cost, need that per-stream pass; the rest
    write their base cost and ``{}``.
    """
    if not links:
        return iter(())
    reflectors, sinks, losses, costs = zip(*links)
    stream_costs = ["{}"] * len(links)
    if not streams:
        costs = (0.0,) * len(links)
    elif overrides or any(map(math.isnan, costs)):
        reference = min(streams)
        costs = list(costs)
        for index, (reflector, sink, _loss, base) in enumerate(links):
            own = overrides.get((reflector, sink), {})
            per_stream = {stream: own.get(stream, base) for stream in streams}
            cost = costs[index] = per_stream[reference]
            differing = {
                k: v for k, v in per_stream.items() if round(v, 9) != round(cost, 9)
            }
            if differing:
                stream_costs[index] = _text(differing)
    capacity_texts = (
        [_text(capacities.get(key)) for key in zip(reflectors, sinks)]
        if capacities
        else ["null"] * len(links)
    )
    return map(
        _DELIVERY_EDGE.__mod__,
        zip(
            capacity_texts,
            _float_texts(costs),
            _float_texts(losses),
            map(names.__getitem__, reflectors),
            map(names.__getitem__, sinks),
            stream_costs,
        ),
    )


def _demand_texts(demands: list[Demand], names: dict[str, str]) -> Iterator[str]:
    """Canonical texts of the demands, as problem_to_dict writes them, in order."""
    return map(
        _DEMAND.__mod__,
        zip(
            [names[demand.sink] for demand in demands],
            [names[demand.stream] for demand in demands],
            _float_texts([demand.success_threshold for demand in demands]),
        ),
    )


class _Texts(NamedTuple):
    """A problem's digest texts: each table's canonical entry texts, in hashed order.

    ``sink_names`` lists the sinks by name and ``sinks`` their texts in that
    order.  No delta changes the streams or the reflectors, so they are kept
    joined.
    """

    streams: str
    reflectors: str
    stream_edges: list[str]
    sink_names: list[str]
    sinks: list[str]
    links: list[str]
    demands: list[str]


def _entry_texts(
    problem: OverlayDesignProblem,
    stream_edges: Iterable[tuple[str, str]],
    links: Iterable[tuple[str, str]],
    demands: Iterable[tuple[str, str]],
    names: dict[str, str],
) -> tuple[list[str], list[str], list[str]]:
    """The texts of the named stream edges, links and demands that ``problem`` has."""
    edges = [problem.stream_edge(*key) for key in stream_edges if problem.has_stream_edge(*key)]
    rows, overrides, capacities = [], {}, {}
    for key in links:
        link = problem._link(key)
        if link is not None:
            loss, cost, own, capacity = link
            rows.append((*key, loss, cost))
            if own:
                overrides[key] = own
            if capacity is not None:
                capacities[key] = capacity
    found = [demand for demand in map(problem._demand, demands) if demand is not None]
    return (
        list(map(_text, _stream_edge_entries(edges))),
        list(_link_texts(rows, problem.streams, names, overrides, capacities)),
        list(_demand_texts(found, names)),
    )


def _carry_texts(
    parent: OverlayDesignProblem,
    child: OverlayDesignProblem,
    *,
    stream_edges: Collection[tuple[str, str]],
    links: Collection[tuple[str, str]],
    demands: Collection[tuple[str, str]],
    sinks_removed: Iterable[str],
    sinks_added: Iterable[str],
) -> None:
    """Give ``child`` its digest texts from ``parent``'s, if ``parent`` has them.

    ``child`` must be ``parent`` with only the named entries and sinks changed
    and the same streams and reflectors.  The named entries' texts in
    ``parent`` are swapped for their texts in ``child``: Python work per
    named entry, plus C-level copies of the text lists.
    """
    texts = parent._texts
    if texts is None:
        return
    names = _NameTexts()
    old = _entry_texts(parent, stream_edges, links, demands, names)
    new = _entry_texts(child, stream_edges, links, demands, names)
    tables = []
    for entries, removed, added in zip(
        (texts.stream_edges, texts.links, texts.demands), old, new
    ):
        spliced = _spliced([entries], removed, [(text,) for text in added])
        if spliced is None:
            return
        tables.append(spliced[0])
    sinks = _spliced(
        [texts.sink_names, texts.sinks],
        sinks_removed,
        [(sink, names[sink]) for sink in sinks_added],
    )
    if sinks is not None:
        child._texts = texts._replace(
            stream_edges=tables[0],
            sink_names=sinks[0],
            sinks=sinks[1],
            links=tables[1],
            demands=tables[2],
        )


def _hashed(texts: _Texts) -> str:
    text = _PROBLEM % (
        ", ".join(texts.links),
        ", ".join(texts.demands),
        FORMAT_VERSION,
        texts.reflectors,
        ", ".join(texts.sinks),
        ", ".join(texts.stream_edges),
        texts.streams,
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _problem_digest(problem: OverlayDesignProblem) -> str:
    """One pass over the problem's tables; see :func:`problem_digest`.

    Keeps the texts it hashes as the problem's memo.
    """
    streams = problem.streams
    sinks = sorted(problem.sinks)
    # Each name's JSON text, escaped once however often the name is used.
    names = {
        name: encode_basestring_ascii(name) if isinstance(name, str) else _text(name)
        for name in streams + problem.reflectors + sinks
    }
    texts = problem._texts = _Texts(
        streams=", ".join(sorted(map(_text, _stream_entries(problem)))),
        reflectors=", ".join(sorted(map(_text, _reflector_entries(problem)))),
        stream_edges=sorted(map(_text, _stream_edge_entries(problem.stream_edges()))),
        sink_names=sinks,
        sinks=list(map(names.__getitem__, sinks)),
        links=sorted(
            _link_texts(
                problem.delivery_link_data(),
                streams,
                names,
                problem.delivery_stream_cost_overrides(),
                problem.arc_capacities(),
            )
        ),
        demands=sorted(_demand_texts(problem.demands, names)),
    )
    return _hashed(texts)


def problem_digest(problem: OverlayDesignProblem) -> str:
    """Canonical content digest of a problem (name excluded).

    Ignores the instance's ``name`` and the order entities were added in:
    two problems describing the same network (same streams, reflectors,
    sinks, edges, demands) digest identically even if they were built in
    different orders -- which is what makes the digest useful for checking
    delta round-trips (``apply(apply(P, d), invert(d)) == P``).

    The digest hashes :func:`problem_to_dict` without the name, with floats
    rounded as in :func:`canonical_digest`: each entity list is sorted by its
    entries' rounded text, the sinks by name, and a link lists a per-stream
    cost only when it differs from the link's cost (its cost for the
    smallest stream name) after rounding.  It is written in one pass over
    the problem's tables rather than through that document.  Float noise is
    ignored when every value keeps its 9-place rounded form; a value that
    crosses a rounding boundary changes the digest.

    The digest and the entry texts it hashes are memoised on the problem
    object; every ``add_*`` method of :class:`OverlayDesignProblem` clears
    them.  A problem made by ``repro.incremental.apply_delta`` from a
    digested one starts with its parent's texts, the changed entries' texts
    swapped, so its digest costs one hash of the joined texts.
    """
    digest = problem._digest
    if digest is None:
        texts = problem._texts
        digest = problem._digest = _problem_digest(problem) if texts is None else _hashed(texts)
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
