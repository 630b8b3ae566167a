"""JSON (de)serialization of problems and solutions.

A deployable overlay designer needs its inputs (measured loss rates, costs,
fanouts, demand sets) and outputs (which reflectors serve which edgeservers)
to cross process boundaries: the measurement pipeline produces the instance,
the designer runs periodically ("our algorithm is reasonably fast so it can be
rerun as often as needed", Section 1.3), and the resulting design is pushed to
the entrypoints and reflectors.  This module provides a stable, versioned JSON
encoding for :class:`OverlayDesignProblem` and :class:`OverlaySolution`, declared
once as :data:`PROBLEM` and :data:`SOLUTION` (:mod:`repro.core.schema`), and is
what the CLI (:mod:`repro.cli`) reads and writes.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.problem import Demand, OverlayDesignProblem, StreamEdge
from repro.core.schema import (
    ANY,
    NUMBER,
    STRING,
    Doc,
    DocumentError,
    Domain,
    Field,
    MapOf,
    Rows,
    render,
)
from repro.core.solution import OverlaySolution

#: Format version written into every document; bump on breaking changes.
FORMAT_VERSION = 1


#: The required name fields (of a stream, reflector or sink), by key.
NAME = {key: Field(key, STRING, required=True) for key in ("name", "stream", "reflector", "sink")}

#: Fields a delivery or stream edge shares with the delta document
#: (:mod:`repro.incremental.delta`).  Their bounds are the ``add_*`` methods'.
LOSS_PROBABILITY = Field("loss_probability", NUMBER, required=True)
COST = Field("cost", NUMBER, required=True)
STREAM_COSTS = Field("stream_costs", MapOf(NUMBER), nullable=True)
CAPACITY = Field("capacity", NUMBER, nullable=True)
SUCCESS_THRESHOLD = Field("success_threshold", NUMBER, required=True)

#: A color keys the ISP groups, so it is a hashable JSON scalar.
COLOR = Domain(
    "a string, a number or null",
    lambda value: value is None or isinstance(value, str) or NUMBER.accepts(value),
)

#: The rows the problem tables without a row type of their own encode.
_Stream = namedtuple("_Stream", "name bandwidth")
_Link = namedtuple("_Link", "reflector sink loss_probability cost stream_costs capacity")


class Table:
    """A problem table: a JSON list of ``entry`` declarations.

    Decoding checks only that the table is a list: :func:`_problem` hands
    each entry to its ``add_*`` method with no per-field check, and names the
    field of an entry that trips it (:func:`_entry_error`).
    """

    def __init__(self, entry: Doc | Domain) -> None:
        self.entry = entry

    def decode(self, value: Any, path: str) -> list:
        if not isinstance(value, list):
            raise DocumentError(f"{render(path)} must be a list, got {type(value).__name__}")
        return value

    def encode(self, rows: Iterable) -> list:
        return list(map(self.entry.encode, rows))


def _links(problem: OverlayDesignProblem) -> list[_Link]:
    """Each link's row: its ``cost`` is its cost for the stream with the smallest
    name, and ``stream_costs`` lists the streams whose cost differs from it."""
    streams = problem.streams
    overrides = problem.delivery_stream_cost_overrides()
    capacities = problem.arc_capacities()
    rows = []
    for reflector, sink, loss, cost in problem.delivery_link_data():
        own, costs = overrides.get((reflector, sink)), {}
        if not streams:
            cost = 0.0
        elif own:
            per_stream = {stream: own.get(stream, cost) for stream in streams}
            cost = per_stream[min(streams)]
            costs = {stream: value for stream, value in per_stream.items() if value != cost}
        rows.append(_Link(reflector, sink, loss, cost, costs, capacities.get((reflector, sink))))
    return rows


def _problem(name: str = "overlay-design", **tables: list) -> OverlayDesignProblem:
    """The problem the decoded tables describe, built through ``add_*`` in one pass."""
    problem = OverlayDesignProblem(name=name)
    table = "streams"
    try:
        for index, stream in enumerate(tables.get(table, ())):
            problem.add_stream(stream["name"], bandwidth=stream.get("bandwidth", 1.0))
        table = "reflectors"
        for index, reflector in enumerate(tables.get(table, ())):
            problem.add_reflector(
                reflector["name"],
                cost=reflector["cost"],
                fanout=reflector["fanout"],
                color=reflector.get("color"),
                capacity=reflector.get("capacity"),
            )
        table = "sinks"
        for index, sink in enumerate(tables.get(table, ())):
            problem.add_sink(sink)
        table = "stream_edges"
        for index, edge in enumerate(tables.get(table, ())):
            problem.add_stream_edge(
                edge["stream"],
                edge["reflector"],
                loss_probability=edge["loss_probability"],
                cost=edge["cost"],
            )
        table = "delivery_edges"
        for index, edge in enumerate(tables.get(table, ())):
            problem.add_delivery_edge(
                edge["reflector"],
                edge["sink"],
                loss_probability=edge["loss_probability"],
                cost=edge["cost"],
                stream_costs=edge.get("stream_costs"),
                capacity=edge.get("capacity"),
            )
        table = "demands"
        for index, demand in enumerate(tables.get(table, ())):
            problem.add_demand(
                demand["sink"], demand["stream"], success_threshold=demand["success_threshold"]
            )
    except (TypeError, AttributeError, KeyError, ValueError) as error:
        raise _entry_error(problem, table, index, tables[table][index], error) from None
    # add_* takes any hashable name; a document's names are strings.
    for table, names in (
        ("streams", problem._streams),
        ("reflectors", problem._reflectors),
        ("sinks", problem._sinks),
    ):
        if not all(map(STRING.accepts, names)):
            index = next(i for i, name in enumerate(names) if not STRING.accepts(name))
            raise _entry_error(problem, table, index, tables[table][index], TypeError())
    return problem


#: The problem tables' entries.
STREAMS = Table(Doc(dict, [NAME["name"], Field("bandwidth", NUMBER)]))
FANOUT = Field("fanout", NUMBER, required=True)
REFLECTOR = Doc(dict, [NAME["name"], COST, FANOUT, Field("color", COLOR), CAPACITY])
LINK = Doc(dict, [NAME["reflector"], NAME["sink"], LOSS_PROBABILITY, COST, STREAM_COSTS, CAPACITY])
DEMAND = Doc(dict, [NAME["sink"], NAME["stream"], SUCCESS_THRESHOLD])
STREAM_EDGES = Table(Doc(dict, [NAME["stream"], NAME["reflector"], LOSS_PROBABILITY, COST]))
PROBLEM = Doc(
    _problem,
    [
        Field("name", STRING),
        Field(
            "streams", STREAMS, get=lambda p: [_Stream(s, p.stream_bandwidth(s)) for s in p.streams]
        ),
        Field("reflectors", Table(REFLECTOR), get=lambda p: map(p.reflector_info, p.reflectors)),
        Field("sinks", Table(STRING)),
        Field("stream_edges", STREAM_EDGES, get=OverlayDesignProblem.stream_edges),
        Field("delivery_edges", Table(LINK), get=_links),
        Field("demands", Table(DEMAND)),
    ],
    header={"format_version": FORMAT_VERSION, "kind": "overlay-design-problem"},
)


def _entry_error(
    problem: OverlayDesignProblem, table: str, index: int, entry: Any, error: Exception
) -> DocumentError:
    """Name the field of the table entry that tripped the decode loop.

    A value ``add_*`` refuses (``ValueError``) is prefixed with the entry's
    path.  Otherwise the entry is decoded against its declaration, which
    names a wrongly typed or missing field, and then a name the problem does
    not define is named with its field.
    """
    declared = PROBLEM[table].codec.entry
    noun = "strings" if declared is STRING else "objects"
    if not isinstance(entry, str if declared is STRING else dict):
        return DocumentError(f"problem.{table}: entries must be {noun}, got {type(entry).__name__}")
    where = f"problem.{table}[{index}]"
    if isinstance(declared, Doc) and not isinstance(error, ValueError):
        declared.values(entry, where)
    if isinstance(error, KeyError):
        field = _undefined_name_field(problem, entry)
        where, error = where if field is None else f"{where}.{field}", error.args[0]
    return DocumentError(f"{where}: {error}")


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


def problem_to_dict(problem: OverlayDesignProblem) -> dict[str, Any]:
    """Encode a problem as a JSON-compatible dictionary (:data:`PROBLEM`)."""
    return PROBLEM.encode(problem)


def problem_from_dict(data: dict[str, Any]) -> OverlayDesignProblem:
    """Decode a problem from a dictionary produced by :func:`problem_to_dict`.

    A malformed document raises :class:`DocumentError` naming the field,
    e.g. ``problem.reflectors[0].cost must be a number, got str`` or
    ``problem.stream_edges[0].reflector: unknown reflector 'zz'``.
    """
    return PROBLEM.decode(data, "problem")


#: One entry of a solution's ``assignments``.
Assignment = namedtuple("Assignment", "sink stream reflectors")


def scalar_metadata(metadata: dict) -> dict:
    """The JSON-scalar entries of a free-form metadata mapping."""
    scalars = (str, int, float, bool, type(None))
    return {key: value for key, value in metadata.items() if isinstance(value, scalars)}


def _solution(assignments: list = (), metadata: dict | None = None, **derived: Any) -> Callable:
    """The decoded solution, waiting for its problem.  The assignments are read
    with no per-field check and decoded against :data:`ASSIGNMENT` only to name
    a malformed one; the derived fields are recomputed from them."""
    try:
        keyed = {(entry["sink"], entry["stream"]): entry["reflectors"] for entry in assignments}
        rows = keyed.values()
        valid = all(type(row) is list and all(map(STRING.accepts, row)) for row in rows)
    except (KeyError, TypeError):
        valid = False
    if not valid:
        Rows(ASSIGNMENT).decode(assignments, "solution.assignments")
    metadata = dict(metadata or {})

    def bind(problem: OverlayDesignProblem) -> OverlaySolution:
        _check_assignments(problem, assignments)
        return OverlaySolution.from_assignments(problem, keyed, metadata=metadata)

    return bind


def _check_assignments(problem: OverlayDesignProblem, assignments: list) -> None:
    """Refuse an entry whose demand, or one of whose reflectors, ``problem`` lacks.

    One pass of dict lookups on the problem's tables (a served cache hit
    decodes against a freshly parsed problem, which has no index yet).  A
    reflector must be a candidate of the entry's demand: a stream edge and a
    delivery edge must reach it.
    """
    demands, reflectors = problem._demands, problem._reflectors
    # The reflectors each stream reaches; the problem keeps those each sink links to.
    carriers: dict[str, set[str]] = {}
    for stream, reflector in problem._stream_edges:
        carriers.setdefault(stream, set()).add(reflector)
    linked = problem._sink_reflectors
    for index, entry in enumerate(assignments):
        sink, stream = key = entry["sink"], entry["stream"]
        if key not in demands:
            where = f"solution.assignments[{index}]"
            if not problem._has_sink(sink):
                raise DocumentError(f"{where}.sink: unknown sink {sink!r}")
            if stream not in problem._stream_set:
                raise DocumentError(f"{where}.stream: unknown stream {stream!r}")
            raise DocumentError(f"{where}: the problem has no demand {key!r}")
        carried, reached = carriers.get(stream, ()), linked.get(sink, ())
        for position, reflector in enumerate(entry["reflectors"]):
            if reflector in carried and reflector in reached:
                continue
            field = f"solution.assignments[{index}].reflectors[{position}]"
            if reflector not in reflectors:
                raise DocumentError(f"{field}: unknown reflector {reflector!r}")
            raise DocumentError(
                f"{field}: reflector {reflector!r} is no candidate of demand {key!r}"
            )


def _deliveries(solution: OverlaySolution) -> list[list[str]]:
    return sorted(map(list, solution.stream_deliveries))


def _assignments(solution: OverlaySolution) -> list[Assignment]:
    items = sorted(solution.assignments.items())
    return [Assignment(*key, list(reflectors)) for key, reflectors in items]


NAMES = Rows(STRING)
REFLECTORS = Field("reflectors", NAMES, required=True)
ASSIGNMENT = Doc(Assignment, [NAME["sink"], NAME["stream"], REFLECTORS])
SOLUTION = Doc(
    _solution,
    [
        Field("problem_name", STRING, get=lambda solution: solution.problem.name),
        Field("built_reflectors", NAMES, get=lambda solution: sorted(solution.built_reflectors)),
        Field("stream_deliveries", Rows(NAMES), get=_deliveries),
        Field("assignments", Table(ASSIGNMENT), get=_assignments),
        Field("metadata", MapOf(ANY), get=lambda solution: scalar_metadata(solution.metadata)),
        Field("summary", MapOf(ANY), get=OverlaySolution.summary),
    ],
    header={"format_version": FORMAT_VERSION, "kind": "overlay-solution"},
)


def solution_to_dict(solution: OverlaySolution) -> dict[str, Any]:
    """Encode a solution (without its problem) as a JSON-compatible dictionary."""
    return SOLUTION.encode(solution)


def solution_from_dict(
    data: dict[str, Any], problem: OverlayDesignProblem
) -> OverlaySolution:
    """Decode a solution against its problem instance (:data:`SOLUTION`)."""
    return SOLUTION.decode(data, "solution")(problem)


def dump_problem(problem: OverlayDesignProblem, path: str) -> None:
    """Write a problem to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(problem_to_dict(problem), handle, indent=2, sort_keys=True)


def _load_document(path: str, decode):
    """Decode the JSON file at ``path``; every failure becomes a DocumentError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return decode(json.load(handle))
    except (OSError, ValueError, TypeError, KeyError) as error:
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
    """``json.dumps(round(v, 9))`` of each value in ``values``, in order.

    A float with ``1e-4 <= |v| < 1e6`` is written as ``'%.9f' % v`` less its
    trailing zeros: ``round`` and ``'%.9f'`` give the same correctly rounded
    9-place decimal, which has at most 15 significant digits, so ``repr``
    writes the rounded float as that decimal, in positional notation.  One
    conversion instead of two; every other value takes the ``json`` path.
    """
    texts = []
    append = texts.append
    for value in values:
        if type(value) is float and 1e-4 <= abs(value) < 1e6:
            text = ("%.9f" % value).rstrip("0")
            append(text + "0" if text[-1] == "." else text)
        else:
            append(json.dumps(round(value, 9)))
    return texts


# problem_to_dict's entries and its document, keys in sorted order
# (tests/test_digest.py holds them to the old encoder).
_STREAM = '{"bandwidth": %s, "name": %s}'
_REFLECTOR = '{"capacity": %s, "color": %s, "cost": %s, "fanout": %s, "name": %s}'
_STREAM_EDGE = '{"cost": %s, "loss_probability": %s, "reflector": %s, "stream": %s}'
_DELIVERY_EDGE = (
    '{"capacity": %s, "cost": %s, "loss_probability": %s, "reflector": %s, '
    '"sink": %s, "stream_costs": %s}'
)
_DEMAND = '{"sink": %s, "stream": %s, "success_threshold": %s}'


def _filled(template: str, *columns: Iterable[str]) -> Iterator[str]:
    """``template % row`` for each row of the text ``columns``, in order.

    Each row is joined from the template's pieces and its texts by one
    ``str.join``, which costs about a third of what ``%`` costs per row.
    """
    pieces = template.split("%s")
    parts: list[Iterable[str]] = [repeat(pieces[0])]
    for column, piece in zip(columns, pieces[1:]):
        parts += (column, repeat(piece))
    return map("".join, zip(*parts))


class _NameTexts(dict):
    """Each name's JSON text, escaped once however often the name is used."""

    def __missing__(self, name: Any) -> str:
        text = self[name] = encode_basestring_ascii(name) if isinstance(name, str) else _text(name)
        return text


def _link_texts(problem: OverlayDesignProblem, names: dict[str, str]) -> Iterator[str]:
    """Canonical texts of the links, as problem_to_dict writes them, in order.

    The columns are read off the problem's own ``(reflector, sink)`` keys and
    ``(loss, base cost)`` pairs without a new tuple per link, so a large
    problem's digest does not set off the garbage collector.  A link's
    ``cost`` is its cost for the smallest stream name and ``stream_costs``
    lists the streams whose rounded cost differs from it.  problem_to_dict
    compares unrounded costs; comparing the rounded ones keeps float noise
    out of the digest.  Only links with per-stream overrides need that
    per-stream pass; the rest write their base cost and ``{}``.
    """
    keys, values = list(problem._delivery_links), list(problem._delivery_links.values())
    streams = problem.streams
    overrides, capacities = problem.delivery_stream_cost_overrides(), problem.arc_capacities()
    first, second = itemgetter(0), itemgetter(1)
    costs = list(map(second, values))
    stream_costs = ["{}"] * len(keys)
    if not streams:
        costs = [0.0] * len(keys)
    elif overrides:
        reference = min(streams)
        for index, (key, base) in enumerate(zip(keys, costs)):
            own = overrides.get(key, {})
            per_stream = {stream: own.get(stream, base) for stream in streams}
            cost = costs[index] = per_stream[reference]
            differing = {
                k: v for k, v in per_stream.items() if round(v, 9) != round(cost, 9)
            }
            if differing:
                stream_costs[index] = _text(differing)
    capacity_texts = (
        [_text(capacities.get(key)) for key in keys] if capacities else ["null"] * len(keys)
    )
    return _filled(
        _DELIVERY_EDGE,
        capacity_texts,
        _float_texts(costs),
        _float_texts(list(map(first, values))),
        map(names.__getitem__, map(first, keys)),
        map(names.__getitem__, map(second, keys)),
        stream_costs,
    )


def _demand_texts(demands: list[Demand], names: dict[str, str]) -> Iterator[str]:
    """Canonical texts of the demands, as problem_to_dict writes them, in order."""
    return _filled(
        _DEMAND,
        [names[demand.sink] for demand in demands],
        [names[demand.stream] for demand in demands],
        _float_texts([demand.success_threshold for demand in demands]),
    )


def _stream_texts(problem: OverlayDesignProblem, names: dict[str, str]) -> Iterator[str]:
    """Canonical texts of the streams, as problem_to_dict writes them, in order."""
    streams = problem.streams
    bandwidths = _float_texts(list(map(problem.stream_bandwidth, streams)))
    return _filled(_STREAM, bandwidths, map(names.__getitem__, streams))


def _reflector_texts(problem: OverlayDesignProblem, names: dict[str, str]) -> Iterator[str]:
    """Canonical texts of the reflectors, as problem_to_dict writes them, in order."""
    infos = list(map(problem.reflector_info, problem.reflectors))
    return _filled(
        _REFLECTOR,
        [_text(info.capacity) for info in infos],
        [_text(info.color) for info in infos],
        _float_texts([info.cost for info in infos]),
        [_text(info.fanout) for info in infos],
        [names[info.name] for info in infos],
    )


def _stream_edge_texts(edges: list[StreamEdge], names: dict[str, str]) -> Iterator[str]:
    """Canonical texts of the stream edges, as problem_to_dict writes them, in order."""
    return _filled(
        _STREAM_EDGE,
        _float_texts([edge.cost for edge in edges]),
        _float_texts([edge.loss_probability for edge in edges]),
        [names[edge.reflector] for edge in edges],
        [names[edge.stream] for edge in edges],
    )


def _problem_digest(problem: OverlayDesignProblem) -> str:
    """One pass over the problem's tables, fed to SHA-256 piece by piece; see
    :func:`problem_digest`.

    The pieces are problem_to_dict's keys in sorted order and each table's
    sorted entry texts, joined; the whole document is never formatted into
    one string.
    """
    names = _NameTexts()
    digest = hashlib.sha256()
    for piece in (
        '{"delivery_edges": [',
        ", ".join(sorted(_link_texts(problem, names))),
        '], "demands": [',
        ", ".join(sorted(_demand_texts(problem.demands, names))),
        f'], "format_version": {FORMAT_VERSION}, "kind": "overlay-design-problem", '
        '"reflectors": [',
        ", ".join(sorted(_reflector_texts(problem, names))),
        '], "sinks": [',
        ", ".join(map(names.__getitem__, sorted(problem.sinks))),
        '], "stream_edges": [',
        ", ".join(sorted(_stream_edge_texts(problem.stream_edges(), names))),
        '], "streams": [',
        ", ".join(sorted(_stream_texts(problem, names))),
        "]}",
    ):
        digest.update(piece.encode())
    return digest.hexdigest()[:16]


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
